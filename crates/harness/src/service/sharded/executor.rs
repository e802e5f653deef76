//! The per-shard executor: one shard's state ([`ShardCore`]), the
//! persistent thread that serves probe jobs against it, and the job/event
//! vocabulary it speaks with the wave merge.

use super::partition::ShardPart;
use crate::service::admission::Ticket;
use crate::service::cache::{CacheLevels, CachePolicy};
use crate::service::fault::FaultPlan;
use crate::service::options::ServiceOptions;
use crate::service::pool::WaveFaults;
use crate::service::run_batch_on;
use crate::service::stages::{QueryOutcome, QueryRecord};
use sqbench_graph::{Dataset, Graph, GraphId};
use sqbench_index::{CandidateSet, GraphIndex};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// One shard's mutable state: its dataset slice, its own index, its id
/// mapping, one candidate set per worker (kept across waves) and its feature
/// cache. Shared behind a mutex between the service thread (mutations,
/// stats, cache control) and the shard's persistent executor thread
/// (probes) — the executor holds the lock for the duration of each job,
/// which is what serializes probes against online mutations.
pub(super) struct ShardCore {
    pub(super) dataset: Dataset,
    pub(super) index: Box<dyn GraphIndex>,
    pub(super) to_global: Vec<GraphId>,
    sets: Vec<CandidateSet>,
    /// This shard's cross-query feature-bitset cache (no memo level),
    /// shared by its workers across waves. Per-shard by design: cached
    /// bitsets are shard-local posting lists and must never leak across
    /// shards.
    pub(super) caches: CacheLevels,
}

/// One query's probe of one shard, as shipped to a shard executor.
pub(super) struct ProbeItem {
    /// The query's wave index — the merge loop's slot for the reply.
    pub(super) slot: usize,
    pub(super) query: Arc<Graph>,
    /// The query's effective deadline: min(wave-wide, its own).
    pub(super) deadline: Option<Instant>,
    pub(super) ticket: Ticket,
}

/// A batch of probes for one shard executor, carrying the wave's reply
/// channel. A wave the merge loop has abandoned simply drops its
/// receiver; the executor's late replies then fail silently and the
/// stale work is discarded.
pub(super) struct ShardJob {
    pub(super) items: Vec<ProbeItem>,
    pub(super) reply: Sender<WaveEvent>,
}

/// One `(query, shard)` probe completion, streamed to the merge loop the
/// moment the shard finishes it — per-query completion, no wave barrier.
pub(super) struct WaveEvent {
    pub(super) shard: usize,
    pub(super) slot: usize,
    pub(super) outcome: QueryOutcome,
    /// The probe's record with answers already mapped to *global* ids
    /// (the executor maps them under the core lock, where `to_global` is
    /// stable); `None` for timed-out and failed probes.
    pub(super) record: Option<QueryRecord>,
}

/// Probe items per worker the dynamic scaler aims for: a backlog of more
/// than this many queries per worker grows the pool (up to the cap).
const QUERIES_PER_WORKER: usize = 4;

/// One shard of the service: shared core state plus the persistent
/// executor thread that serves probe jobs against it.
pub(super) struct Shard {
    core: Arc<Mutex<ShardCore>>,
    pub(super) jobs: Sender<ShardJob>,
    /// Probe items queued at (or executing on) this shard — the observed
    /// queue depth that drives dynamic worker scaling.
    pub(super) backlog: Arc<AtomicUsize>,
    /// Largest worker pool the executor ever scaled to (diagnostics).
    pub(super) worker_high_water: Arc<AtomicUsize>,
    thread: Option<JoinHandle<()>>,
}

impl Shard {
    /// Takes ownership of one partition and its freshly built index and
    /// starts the shard's executor thread. `opts.workers` is the pool
    /// floor, `opts.workers_max` (clamped up to the floor) its cap.
    pub(super) fn spawn(
        shard: usize,
        part: ShardPart,
        index: Box<dyn GraphIndex>,
        opts: &ServiceOptions,
    ) -> Shard {
        let workers = opts.workers.max(1);
        let core = Arc::new(Mutex::new(ShardCore {
            dataset: part.dataset,
            index,
            to_global: part.to_global,
            sets: (0..workers).map(|_| CandidateSet::empty(0)).collect(),
            caches: CacheLevels::new(CachePolicy {
                answer_capacity: 0,
                ..opts.cache
            }),
        }));
        let (jobs, job_rx) = mpsc::channel();
        let backlog = Arc::new(AtomicUsize::new(0));
        let worker_high_water = Arc::new(AtomicUsize::new(workers));
        let thread = {
            let (core, backlog, high_water) = (
                Arc::clone(&core),
                Arc::clone(&backlog),
                Arc::clone(&worker_high_water),
            );
            let bounds = (workers, opts.workers_max.max(workers));
            let faults = opts.faults.clone();
            std::thread::spawn(move || {
                run_executor(
                    shard,
                    &core,
                    job_rx,
                    &backlog,
                    &high_water,
                    bounds,
                    faults.as_deref(),
                )
            })
        };
        Shard {
            core,
            jobs,
            backlog,
            worker_high_water,
            thread: Some(thread),
        }
    }

    pub(super) fn lock(&self) -> MutexGuard<'_, ShardCore> {
        self.core.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        // Disconnect the job channel so the executor's recv loop exits
        // (after finishing any queued jobs), then join it — a service
        // never leaks threads past its own lifetime.
        let (dead, _) = mpsc::channel();
        drop(std::mem::replace(&mut self.jobs, dead));
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The shard executor loop: serve probe jobs until the service drops the
/// job channel. Each job locks the core, rescales the worker pool from
/// the observed backlog (between `workers.0` and `workers.1`) and runs the
/// probe batch through the shared claim-to-completion pool; per-item
/// results stream back on the job's reply channel as they are known.
fn run_executor(
    s: usize,
    core: &Mutex<ShardCore>,
    jobs: Receiver<ShardJob>,
    backlog: &AtomicUsize,
    high_water: &AtomicUsize,
    workers: (usize, usize),
    faults: Option<&FaultPlan>,
) {
    while let Ok(job) = jobs.recv() {
        // Snapshot the depth before serving: it includes this job's
        // items plus anything that queued behind it.
        let depth = backlog.load(Ordering::Relaxed).max(job.items.len());
        if let Some(plan) = faults {
            // Injected stall: the shard sleeps before serving, the way
            // a GC pause, page-cache miss storm or noisy neighbour
            // delays a real shard. Queries with deadlines degrade at
            // the merge without waiting for it; the rest arrive late.
            if let Some(stall) = plan.take_stall(s) {
                std::thread::sleep(stall);
            }
        }
        let served = job.items.len();
        let report = catch_unwind(AssertUnwindSafe(|| {
            let mut guard = core.lock().unwrap_or_else(PoisonError::into_inner);
            let core = &mut *guard;
            let target = depth
                .div_ceil(QUERIES_PER_WORKER)
                .clamp(workers.0, workers.1);
            core.sets.resize_with(target, || CandidateSet::empty(0));
            high_water.fetch_max(target, Ordering::Relaxed);
            let queries: Vec<&Graph> = job.items.iter().map(|it| it.query.as_ref()).collect();
            let tickets: Vec<Ticket> = job.items.iter().map(|it| it.ticket).collect();
            let mut report = run_batch_on(
                &*core.index,
                &core.dataset,
                &mut core.sets,
                &queries,
                |i| job.items[i].deadline,
                faults.map(|plan| WaveFaults {
                    plan,
                    tickets: &tickets,
                }),
                core.caches.feature_store(),
            );
            for record in report.records.iter_mut().flatten() {
                for answer in &mut record.answers {
                    *answer = core.to_global[*answer];
                }
            }
            report
        }));
        // Per-query panics are caught inside the pool's workers, so a
        // panic here is shard infrastructure failing — every probe of
        // the job is `Failed` (retryable), not the whole wave.
        let mut report = report.ok();
        for (i, item) in job.items.iter().enumerate() {
            let (outcome, record) = match &mut report {
                Some(report) => (report.outcomes[i], report.records[i].take()),
                None => (QueryOutcome::Failed, None),
            };
            let _ = job.reply.send(WaveEvent {
                shard: s,
                slot: item.slot,
                outcome,
                record,
            });
        }
        backlog.fetch_sub(served, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::setup;
    use crate::service::{ServiceOptions, ShardedService};
    use sqbench_graph::Graph;
    use sqbench_index::{build_index, MethodConfig, MethodKind};

    /// Dynamic worker scaling: a deep wave grows the executors' pools
    /// from the observed backlog up to — and never past — `workers_max`;
    /// the default (cap at the floor) keeps the pools at their fixed size.
    #[test]
    fn worker_pools_scale_with_backlog_and_respect_bounds() {
        let (ds, queries) = setup(16, 24);
        let refs: Vec<&Graph> = queries.iter().collect();
        let mut fixed = ShardedService::new(
            MethodKind::Ggsx,
            &MethodConfig::fast(),
            &ds,
            ServiceOptions::new().shards(2).workers(2),
        );
        let report = fixed.run_wave(&refs, None);
        assert_eq!(report.complete(), queries.len());
        assert_eq!(fixed.worker_high_water(), vec![2, 2]);

        let mut scaled = ShardedService::new(
            MethodKind::Ggsx,
            &MethodConfig::fast(),
            &ds,
            ServiceOptions::new().shards(2).workers(1).workers_max(4),
        );
        let report = scaled.run_wave(&refs, None);
        assert_eq!(report.complete(), queries.len());
        // 24 fanned-out queries per shard at QUERIES_PER_WORKER=4 target 6
        // workers; the cap clamps the pools to 4.
        assert_eq!(scaled.worker_high_water(), vec![4, 4]);
        let oracle = build_index(MethodKind::Ggsx, &MethodConfig::fast(), &ds);
        for (record, query) in report.records.iter().zip(queries.iter()) {
            assert_eq!(record.answers, oracle.query(&ds, query).answers);
        }
    }
}
