//! Open query admission: a bounded, continuously-admitting queue in front
//! of the (sharded) query service.
//!
//! The closed `run_batch` entry point assumes the whole workload exists up
//! front — fine for reproducing the paper's figures, wrong for a service
//! facing open traffic. [`AdmissionQueue`] decouples the two sides:
//!
//! * **Producers** call [`AdmissionQueue::submit`] (blocking) or
//!   [`AdmissionQueue::try_submit`] (non-blocking) from any number of
//!   threads. Each admitted query gets a unique, monotonically increasing
//!   [`Ticket`] and may carry its own deadline. The queue is *bounded*:
//!   when `capacity` queries are pending, `submit` blocks on a condvar
//!   until the consumer drains (backpressure), and `try_submit` returns
//!   [`SubmitError::Full`] so callers can shed load instead.
//! * **The consumer** (whoever owns the service) calls
//!   [`AdmissionQueue::drain_pending`] to take everything currently
//!   admitted as one wave, in admission order, and serves it. Draining
//!   frees capacity and wakes blocked producers.
//! * [`AdmissionQueue::close`] ends admission: subsequent submits fail with
//!   [`SubmitError::Closed`] and blocked producers are released, so a
//!   consumer loop can terminate cleanly once `is_closed() && is_empty()`.
//!
//! The queue owns its queries (`Graph` values, not borrows) — producers
//! hand them over and move on, which is what lets submission outlive any
//! particular wave.
//!
//! # Typed ingest operations
//!
//! The queue carries more than reads: [`AdmissionQueue::submit_insert`] and
//! [`AdmissionQueue::submit_remove`] admit dataset *mutations* through the
//! same ticket space, so a consumer draining waves sees queries and writes
//! interleaved in exactly the order producers submitted them. Mutations
//! share the queue's capacity bound (backpressure applies to writes too)
//! but are never cost-shed: dropping a write would silently fork the
//! dataset the producer believes it is growing.

use super::fault::FaultPlan;
use sqbench_graph::{Graph, GraphId};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Identifier of one admitted operation, unique per queue and monotonically
/// increasing in admission order.
pub type Ticket = u64;

/// One operation travelling through the admission queue: a read (subgraph
/// query) or a dataset mutation. Mutations ride the same ticket space as
/// queries so the consumer applies them in admission order relative to the
/// reads around them.
#[derive(Debug, Clone)]
pub enum IngestOp {
    /// A subgraph query to answer against the current dataset.
    Query(Graph),
    /// Append this graph to the dataset (the service assigns the id).
    Insert(Graph),
    /// Tombstone the graph with this global id.
    Remove(GraphId),
}

impl IngestOp {
    /// `true` for operations that mutate the dataset (insert/remove).
    pub fn is_mutation(&self) -> bool {
        !matches!(self, IngestOp::Query(_))
    }
}

/// One operation accepted into the admission queue, waiting to be drained.
#[derive(Debug)]
pub struct AdmittedQuery {
    /// The queue-unique admission ticket.
    pub ticket: Ticket,
    /// The admitted operation (owned by the queue until drained).
    pub op: IngestOp,
    /// When the operation was admitted (for queue-wait accounting).
    pub submitted_at: Instant,
    /// The producer-supplied deadline: the query must *start* executing
    /// before this instant or be recorded as expired. Always `None` for
    /// mutations — writes are applied regardless of backlog.
    pub deadline: Option<Instant>,
}

impl AdmittedQuery {
    /// The query graph, when this admission is a read. `None` for
    /// mutations.
    pub fn query(&self) -> Option<&Graph> {
        match &self.op {
            IngestOp::Query(q) => Some(q),
            IngestOp::Insert(_) | IngestOp::Remove(_) => None,
        }
    }
}

/// Why a submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue has been closed; no further queries are admitted.
    Closed,
    /// The queue is at capacity ([`AdmissionQueue::try_submit`] only —
    /// the blocking [`AdmissionQueue::submit`] waits instead).
    Full,
    /// The query was shed by cost-aware admission
    /// ([`AdmissionQueue::submit_or_shed`]): its deadline had already
    /// expired at submission, or the queue was full and the backlog made
    /// the deadline infeasible. Shedding at the door is the service's
    /// answer to sustained overload — a query that cannot possibly meet
    /// its deadline should not consume queue capacity and worker time just
    /// to expire later.
    Shed,
    /// A deterministic fault-injection plan rejected this submission (test
    /// harness only — see [`FaultPlan::fail_admission`]). The would-be
    /// ticket is *not* consumed, so a retrying producer observes a dense
    /// ticket space.
    Injected,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Closed => write!(f, "admission queue is closed"),
            SubmitError::Full => write!(f, "admission queue is full"),
            SubmitError::Shed => write!(f, "query shed: deadline infeasible under current load"),
            SubmitError::Injected => write!(f, "submission rejected by fault injection"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A measured per-query cost model: what the service has *observed* a
/// query to cost, replacing the caller-supplied `cost_hint` that admission
/// used to trust blindly.
///
/// The model keeps exponentially-weighted moving averages (EWMA,
/// `α = 0.2`) of the filter-stage cost, the candidate count, and the
/// per-candidate verify cost — i.e. verify cost *regressed on candidate
/// count*, so a workload whose candidate sets grow predicts proportionally
/// larger verify bills instead of lagging a flat average. The consumer
/// feeds it one [`CostModel::observe`] call per completed query (the
/// sharded service does this while draining); admission reads
/// [`CostModel::estimate_query_cost`] to judge deadline feasibility.
///
/// All cells are relaxed atomics storing `f64` bits: observations from
/// concurrent drains may occasionally overwrite each other, which is
/// acceptable for a smoothed estimate and keeps the submit path lock-free
/// with respect to the model.
#[derive(Debug, Default)]
pub struct CostModel {
    /// EWMA of per-candidate verify cost, seconds (f64 bits).
    verify_per_candidate: AtomicU64,
    /// EWMA of per-query filter + cache-probe cost, seconds (f64 bits).
    filter_s: AtomicU64,
    /// EWMA of per-query candidate count (f64 bits).
    candidates: AtomicU64,
    /// Completed-query observations folded in so far.
    observations: AtomicU64,
}

/// EWMA smoothing factor: new observations carry 20% weight.
const COST_EWMA_ALPHA: f64 = 0.2;

impl CostModel {
    /// Creates an empty model (no observations, no estimate).
    pub fn new() -> Self {
        Self::default()
    }

    fn load(cell: &AtomicU64) -> f64 {
        f64::from_bits(cell.load(Ordering::Relaxed))
    }

    fn fold(&self, cell: &AtomicU64, sample: f64) {
        let prev = Self::load(cell);
        let next = if self.observations.load(Ordering::Relaxed) == 0 {
            sample
        } else {
            prev + COST_EWMA_ALPHA * (sample - prev)
        };
        cell.store(next.to_bits(), Ordering::Relaxed);
    }

    /// Folds one completed query's measurements into the model: how many
    /// candidates filtering produced and the seconds spent filtering and
    /// verifying. Non-finite or negative samples are ignored.
    pub fn observe(&self, candidates: usize, filter_s: f64, verify_s: f64) {
        if !(filter_s.is_finite() && verify_s.is_finite()) || filter_s < 0.0 || verify_s < 0.0 {
            return;
        }
        let per_candidate = if candidates > 0 {
            verify_s / candidates as f64
        } else {
            0.0
        };
        self.fold(&self.verify_per_candidate, per_candidate);
        self.fold(&self.filter_s, filter_s);
        self.fold(&self.candidates, candidates as f64);
        self.observations.fetch_add(1, Ordering::Relaxed);
    }

    /// Completed-query observations folded in so far.
    pub fn observations(&self) -> u64 {
        self.observations.load(Ordering::Relaxed)
    }

    /// The model's current estimate of one query's processing cost:
    /// `filter + verify_per_candidate × candidates`. `None` until the
    /// first observation — an unwarmed model refuses to guess, so
    /// admission falls back to deadline-expiry shedding only. Estimates
    /// too large for a `Duration` saturate at [`Duration::MAX`].
    pub fn estimate_query_cost(&self) -> Option<Duration> {
        if self.observations() == 0 {
            return None;
        }
        let secs = Self::load(&self.filter_s)
            + Self::load(&self.verify_per_candidate) * Self::load(&self.candidates);
        Some(Duration::try_from_secs_f64(secs.max(0.0)).unwrap_or(Duration::MAX))
    }

    /// Forces the model to a fixed per-query estimate, as if it had
    /// observed exactly one query costing `cost` in its filter stage.
    /// An operations/test hook for pre-warming admission before the first
    /// drain (e.g. from a previous run's measurements).
    pub fn seed(&self, cost: Duration) {
        self.filter_s
            .store(cost.as_secs_f64().to_bits(), Ordering::Relaxed);
        self.verify_per_candidate.store(0, Ordering::Relaxed);
        self.candidates.store(0, Ordering::Relaxed);
        self.observations.store(1, Ordering::Relaxed);
    }
}

#[derive(Debug)]
struct AdmissionState {
    pending: VecDeque<AdmittedQuery>,
    /// Pending *read* operations only — the backlog that competes with a
    /// new query for worker time. Mutations are cheap appends/tombstones
    /// and are deliberately excluded (counting them at query cost made a
    /// write-heavy queue over-shed reads).
    pending_reads: usize,
    next_ticket: Ticket,
    closed: bool,
}

/// The bounded multi-producer admission queue. See the module docs.
#[derive(Debug)]
pub struct AdmissionQueue {
    state: Mutex<AdmissionState>,
    /// Signalled whenever capacity frees up (drain) or the queue closes.
    space: Condvar,
    capacity: usize,
    /// Queries rejected by cost-aware shedding ([`SubmitError::Shed`]).
    shed: AtomicU64,
    /// Deterministic fault-injection hook; `None` (the production default)
    /// costs one branch per submission.
    faults: Option<Arc<FaultPlan>>,
    /// The measured cost model backing [`AdmissionQueue::submit_or_shed`];
    /// fed by the consumer as queries complete.
    cost_model: CostModel,
}

impl AdmissionQueue {
    /// Creates a queue from the unified [`ServiceOptions`] surface,
    /// reading `queue_capacity` (the most pending queries the queue admits,
    /// clamped to at least 1 — a zero-capacity queue could never admit) and
    /// `faults` (a fault-injection plan arming [`SubmitError::Injected`]
    /// for targeted tickets).
    ///
    /// [`ServiceOptions`]: super::ServiceOptions
    pub fn new(opts: impl Into<super::ServiceOptions>) -> Self {
        let opts: super::ServiceOptions = opts.into();
        AdmissionQueue {
            state: Mutex::new(AdmissionState {
                pending: VecDeque::new(),
                pending_reads: 0,
                next_ticket: 0,
                closed: false,
            }),
            space: Condvar::new(),
            capacity: opts.queue_capacity.max(1),
            shed: AtomicU64::new(0),
            faults: opts.faults,
            cost_model: CostModel::new(),
        }
    }

    /// Poison-tolerant lock: every guarded section is a short queue
    /// mutation that either completes or leaves the state consistent, so a
    /// producer that panicked elsewhere must not wedge admission for every
    /// other producer — recover the guard instead of cascading.
    fn lock(&self) -> MutexGuard<'_, AdmissionState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of queries currently pending (admitted, not yet drained).
    pub fn len(&self) -> usize {
        self.lock().pending.len()
    }

    /// `true` when no query is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` once [`AdmissionQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Total queries ever admitted (the next ticket to be handed out).
    pub fn admitted(&self) -> u64 {
        self.lock().next_ticket
    }

    /// Queries rejected by cost-aware shedding so far.
    pub fn shed_queries(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Admits `query`, blocking while the queue is full (backpressure).
    /// Returns the query's admission ticket, or [`SubmitError::Closed`] if
    /// the queue closed before the query could be admitted.
    pub fn submit(&self, query: Graph, deadline: Option<Instant>) -> Result<Ticket, SubmitError> {
        self.submit_op(IngestOp::Query(query), deadline)
    }

    /// Admits a dataset insert, blocking while the queue is full. The graph
    /// is appended (and assigned its id) when the consumer applies the
    /// drained wave; mutations are never cost-shed.
    pub fn submit_insert(&self, graph: Graph) -> Result<Ticket, SubmitError> {
        self.submit_op(IngestOp::Insert(graph), None)
    }

    /// Admits a dataset removal (by global graph id), blocking while the
    /// queue is full. Mutations are never cost-shed.
    pub fn submit_remove(&self, id: GraphId) -> Result<Ticket, SubmitError> {
        self.submit_op(IngestOp::Remove(id), None)
    }

    fn submit_op(&self, op: IngestOp, deadline: Option<Instant>) -> Result<Ticket, SubmitError> {
        let mut state = self.lock();
        loop {
            if state.closed {
                return Err(SubmitError::Closed);
            }
            if state.pending.len() < self.capacity {
                self.check_injected(&state)?;
                return Ok(Self::admit(&mut state, op, deadline));
            }
            state = self
                .space
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Non-blocking admission: errors with [`SubmitError::Full`] instead of
    /// waiting when the queue is at capacity.
    pub fn try_submit(
        &self,
        query: Graph,
        deadline: Option<Instant>,
    ) -> Result<Ticket, SubmitError> {
        let mut state = self.lock();
        if state.closed {
            return Err(SubmitError::Closed);
        }
        if state.pending.len() >= self.capacity {
            return Err(SubmitError::Full);
        }
        self.check_injected(&state)?;
        Ok(Self::admit(&mut state, IngestOp::Query(query), deadline))
    }

    /// Cost-aware admission: sheds ([`SubmitError::Shed`]) instead of
    /// queueing a query whose `deadline` cannot plausibly be met —
    /// because it has already expired at submission, or because the queue
    /// is at capacity and the *measured* backlog would outlast the
    /// deadline anyway. The backlog estimate multiplies the cost model's
    /// per-query estimate ([`CostModel::estimate_query_cost`], fed by the
    /// consumer as queries complete) by the pending **read** count —
    /// mutations are cheap appends and do not count against a query's
    /// deadline. Until the model has its first observation, only
    /// already-expired deadlines shed. Deadline-feasible queries behave
    /// exactly like [`AdmissionQueue::submit`], including blocking on a
    /// full queue. Queries without a deadline are never shed.
    pub fn submit_or_shed(
        &self,
        query: Graph,
        deadline: Option<Instant>,
    ) -> Result<Ticket, SubmitError> {
        let mut state = self.lock();
        loop {
            if state.closed {
                return Err(SubmitError::Closed);
            }
            if let Some(deadline) = deadline {
                let now = Instant::now();
                // Full queue: the pending reads are served first, so the
                // earliest this query could finish is roughly
                // now + pending_reads × estimated cost. Both the
                // multiplication and the Instant addition can overflow for
                // large estimates (the naive product panics in debug
                // builds and wraps — under-estimating the backlog — in
                // release), so compute checked and treat overflow as "past
                // any deadline": a backlog too large to represent is
                // certainly infeasible.
                let infeasible = match self.cost_model.estimate_query_cost() {
                    Some(cost) => {
                        let backlog = cost.checked_mul(state.pending_reads as u32);
                        let finish = backlog.and_then(|b| now.checked_add(b));
                        finish.is_none_or(|f| f >= deadline)
                    }
                    // No observations yet: refuse to shed on a guess.
                    None => false,
                };
                // Already expired at the door: executing it would only
                // burn a queue slot to report `TimedOut` later.
                let hopeless =
                    now >= deadline || (state.pending.len() >= self.capacity && infeasible);
                if hopeless {
                    self.shed.fetch_add(1, Ordering::Relaxed);
                    return Err(SubmitError::Shed);
                }
            }
            if state.pending.len() < self.capacity {
                self.check_injected(&state)?;
                return Ok(Self::admit(&mut state, IngestOp::Query(query), deadline));
            }
            state = self
                .space
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The measured cost model backing [`AdmissionQueue::submit_or_shed`].
    /// The consumer feeds it ([`CostModel::observe`]) as queries complete;
    /// anything may read its current estimate.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    /// Number of pending operations that are reads (the backlog the cost
    /// model charges against a new query's deadline).
    pub fn pending_reads(&self) -> usize {
        self.lock().pending_reads
    }

    /// Fault hook: rejects the submission that would receive the next
    /// ticket when the armed plan targets it. The ticket is not consumed —
    /// a retrying producer keeps the ticket space dense.
    fn check_injected(&self, state: &AdmissionState) -> Result<(), SubmitError> {
        if let Some(plan) = &self.faults {
            if plan.take_admission_failure(state.next_ticket) {
                return Err(SubmitError::Injected);
            }
        }
        Ok(())
    }

    fn admit(state: &mut AdmissionState, op: IngestOp, deadline: Option<Instant>) -> Ticket {
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        if !op.is_mutation() {
            state.pending_reads += 1;
        }
        state.pending.push_back(AdmittedQuery {
            ticket,
            op,
            submitted_at: Instant::now(),
            deadline,
        });
        ticket
    }

    /// Takes every currently pending query, in admission order, freeing the
    /// queue's capacity and waking blocked producers. Returns an empty
    /// vector (without blocking) when nothing is pending — the consumer
    /// loop decides how to pace itself.
    pub fn drain_pending(&self) -> Vec<AdmittedQuery> {
        let mut state = self.lock();
        let wave: Vec<AdmittedQuery> = state.pending.drain(..).collect();
        state.pending_reads = 0;
        drop(state);
        if !wave.is_empty() {
            self.space.notify_all();
        }
        wave
    }

    /// Closes the queue: pending queries remain drainable, but no further
    /// submissions are admitted, and producers blocked in
    /// [`AdmissionQueue::submit`] are released with
    /// [`SubmitError::Closed`].
    pub fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        drop(state);
        self.space.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceOptions;
    use std::sync::Arc;
    use std::time::Duration;

    fn q(name: &str) -> Graph {
        Graph::new(name)
    }

    #[test]
    fn tickets_are_unique_and_ordered() {
        let queue = AdmissionQueue::new(ServiceOptions::new().queue_capacity(8));
        let t0 = queue.submit(q("a"), None).unwrap();
        let t1 = queue.submit(q("b"), None).unwrap();
        assert_eq!((t0, t1), (0, 1));
        assert_eq!(queue.len(), 2);
        assert_eq!(queue.admitted(), 2);
        let wave = queue.drain_pending();
        assert_eq!(wave.len(), 2);
        assert_eq!(wave[0].ticket, 0);
        assert_eq!(wave[1].ticket, 1);
        assert!(queue.is_empty());
        // Tickets keep increasing across waves.
        assert_eq!(queue.submit(q("c"), None).unwrap(), 2);
    }

    #[test]
    fn try_submit_sheds_load_at_capacity() {
        let queue = AdmissionQueue::new(ServiceOptions::new().queue_capacity(2));
        queue.try_submit(q("a"), None).unwrap();
        queue.try_submit(q("b"), None).unwrap();
        assert_eq!(queue.try_submit(q("c"), None), Err(SubmitError::Full));
        queue.drain_pending();
        assert!(queue.try_submit(q("c"), None).is_ok());
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let queue = AdmissionQueue::new(ServiceOptions::new().queue_capacity(0));
        assert_eq!(queue.capacity(), 1);
        queue.try_submit(q("a"), None).unwrap();
        assert_eq!(queue.try_submit(q("b"), None), Err(SubmitError::Full));
    }

    #[test]
    fn close_rejects_submissions_and_releases_blocked_producers() {
        let queue = Arc::new(AdmissionQueue::new(ServiceOptions::new().queue_capacity(1)));
        queue.submit(q("a"), None).unwrap();
        let producer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.submit(q("blocked"), None))
        };
        // Give the producer a moment to block on the full queue, then close.
        std::thread::sleep(Duration::from_millis(20));
        queue.close();
        assert_eq!(producer.join().unwrap(), Err(SubmitError::Closed));
        assert!(queue.is_closed());
        // The pending query survives the close and is still drainable.
        assert_eq!(queue.drain_pending().len(), 1);
        assert_eq!(queue.submit(q("late"), None), Err(SubmitError::Closed));
    }

    #[test]
    fn blocked_producer_resumes_after_drain() {
        let queue = Arc::new(AdmissionQueue::new(ServiceOptions::new().queue_capacity(1)));
        queue.submit(q("first"), None).unwrap();
        let producer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.submit(q("second"), None))
        };
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(queue.drain_pending().len(), 1);
        let ticket = producer.join().unwrap().unwrap();
        assert_eq!(ticket, 1);
        let wave = queue.drain_pending();
        assert_eq!(wave.len(), 1);
        assert_eq!(wave[0].query().unwrap().name(), "second");
    }

    #[test]
    fn deadlines_travel_with_the_admitted_query() {
        let queue = AdmissionQueue::new(ServiceOptions::new().queue_capacity(4));
        let deadline = Instant::now() + Duration::from_secs(60);
        queue.submit(q("a"), Some(deadline)).unwrap();
        queue.submit(q("b"), None).unwrap();
        let wave = queue.drain_pending();
        assert_eq!(wave[0].deadline, Some(deadline));
        assert_eq!(wave[1].deadline, None);
        assert!(wave[0].submitted_at <= Instant::now());
    }

    #[test]
    fn empty_drain_returns_immediately() {
        let queue = AdmissionQueue::new(ServiceOptions::new().queue_capacity(4));
        assert!(queue.drain_pending().is_empty());
        assert!(queue.drain_pending().is_empty());
    }

    /// Satellite edge case: every submission flavour on a closed queue
    /// returns the typed `Closed` error — no panic, no admission.
    #[test]
    fn every_submit_flavour_fails_typed_after_close() {
        let queue = AdmissionQueue::new(ServiceOptions::new().queue_capacity(4));
        queue.close();
        assert_eq!(queue.submit(q("a"), None), Err(SubmitError::Closed));
        assert_eq!(queue.try_submit(q("b"), None), Err(SubmitError::Closed));
        assert_eq!(queue.submit_or_shed(q("c"), None), Err(SubmitError::Closed));
        assert_eq!(queue.admitted(), 0);
        assert!(queue.is_empty());
    }

    /// Satellite edge case: a deadline that has already expired at submit
    /// time. Plain `submit` still admits (the wave reports it `TimedOut` —
    /// backwards compatible); `submit_or_shed` rejects it at the door.
    #[test]
    fn deadline_already_expired_at_submit() {
        let queue = AdmissionQueue::new(ServiceOptions::new().queue_capacity(4));
        let past = Instant::now() - Duration::from_secs(1);
        // The non-shedding paths admit: deadline enforcement happens at
        // claim time in the wave.
        assert!(queue.submit(q("a"), Some(past)).is_ok());
        assert!(queue.try_submit(q("b"), Some(past)).is_ok());
        // The cost-aware path refuses to burn a slot on a hopeless query —
        // even with a cold cost model (expiry needs no estimate).
        assert_eq!(
            queue.submit_or_shed(q("c"), Some(past)),
            Err(SubmitError::Shed)
        );
        assert_eq!(queue.shed_queries(), 1);
        assert_eq!(queue.len(), 2);
        // Shedding does not consume a ticket: the space stays dense.
        assert_eq!(queue.submit(q("d"), None), Ok(2));
    }

    #[test]
    fn cost_aware_shedding_rejects_infeasible_deadlines_when_full() {
        let queue = AdmissionQueue::new(ServiceOptions::new().queue_capacity(2));
        queue.cost_model().seed(Duration::from_millis(10));
        queue.submit(q("a"), None).unwrap();
        queue.submit(q("b"), None).unwrap();
        // Full queue + 10 ms/query measured backlog ≫ 1 ms of budget: shed.
        let tight = Instant::now() + Duration::from_millis(1);
        assert_eq!(
            queue.submit_or_shed(q("c"), Some(tight)),
            Err(SubmitError::Shed)
        );
        assert_eq!(queue.shed_queries(), 1);
        // A no-deadline query is never shed — it blocks like `submit`
        // until the consumer drains.
        let queue = Arc::new(queue);
        let producer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.submit_or_shed(q("d"), None))
        };
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(queue.drain_pending().len(), 2);
        assert_eq!(producer.join().unwrap(), Ok(2));
    }

    #[test]
    fn feasible_deadline_is_admitted_not_shed() {
        let queue = AdmissionQueue::new(ServiceOptions::new().queue_capacity(4));
        queue.cost_model().seed(Duration::from_millis(1));
        let roomy = Instant::now() + Duration::from_secs(60);
        let ticket = queue.submit_or_shed(q("a"), Some(roomy)).unwrap();
        assert_eq!(ticket, 0);
        assert_eq!(queue.shed_queries(), 0);
        let wave = queue.drain_pending();
        assert_eq!(wave[0].deadline, Some(roomy));
    }

    /// An unwarmed cost model must not shed on a guess: with zero
    /// observations, a full queue admits (blocks) rather than sheds, and
    /// only already-expired deadlines are rejected at the door.
    #[test]
    fn cold_cost_model_never_sheds_feasible_queries() {
        let queue = Arc::new(AdmissionQueue::new(ServiceOptions::new().queue_capacity(1)));
        assert_eq!(queue.cost_model().observations(), 0);
        queue.submit(q("a"), None).unwrap();
        let deadline = Instant::now() + Duration::from_millis(200);
        let producer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.submit_or_shed(q("b"), Some(deadline)))
        };
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(queue.drain_pending().len(), 1);
        assert_eq!(producer.join().unwrap(), Ok(1));
        assert_eq!(queue.shed_queries(), 0);
    }

    /// Satellite 2 (the overflow bug): a full queue, an astronomically
    /// large measured cost, and a finite deadline used to evaluate
    /// `now + cost * pending_reads` — which panics in debug builds and
    /// wraps (admitting the hopeless query) in release. The checked
    /// arithmetic must shed instead, without panicking.
    #[test]
    fn huge_measured_cost_on_full_queue_sheds_instead_of_overflowing() {
        let queue = AdmissionQueue::new(ServiceOptions::new().queue_capacity(2));
        queue.submit(q("a"), None).unwrap();
        queue.submit(q("b"), None).unwrap();
        let deadline = Instant::now() + Duration::from_secs(60);
        queue.cost_model().seed(Duration::MAX);
        assert_eq!(
            queue.submit_or_shed(q("c"), Some(deadline)),
            Err(SubmitError::Shed)
        );
        assert_eq!(queue.shed_queries(), 1);
        // A representable-but-huge backlog overflows only the Instant
        // addition — same verdict, exercised separately.
        queue.cost_model().seed(Duration::from_secs(u64::MAX / 8));
        assert_eq!(
            queue.submit_or_shed(q("d"), Some(deadline)),
            Err(SubmitError::Shed)
        );
        // Shedding consumed no tickets or slots.
        assert_eq!(queue.len(), 2);
        assert_eq!(queue.admitted(), 2);
    }

    /// Satellite bugfix: the backlog estimate counts only pending *reads*.
    /// A queue full of cheap mutations must not shed a deadline-feasible
    /// query the way the old all-ops × query-cost estimate did.
    #[test]
    fn mutation_heavy_backlog_does_not_shed_feasible_reads() {
        let queue = Arc::new(AdmissionQueue::new(ServiceOptions::new().queue_capacity(4)));
        // 1 s measured per *query*; four pending mutations would have
        // charged a bogus 4 s backlog against a 200 ms deadline.
        queue.cost_model().seed(Duration::from_secs(1));
        for i in 0..4 {
            queue.submit_insert(q(&format!("ins-{i}"))).unwrap();
        }
        assert_eq!(queue.len(), 4);
        assert_eq!(queue.pending_reads(), 0);
        let deadline = Instant::now() + Duration::from_millis(200);
        // Full queue, but the read backlog is zero: block, don't shed.
        let producer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.submit_or_shed(q("read"), Some(deadline)))
        };
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(queue.drain_pending().len(), 4);
        assert_eq!(producer.join().unwrap(), Ok(4));
        assert_eq!(queue.shed_queries(), 0);
        assert_eq!(queue.pending_reads(), 1);
        // Reads *do* count: with one read pending and a 1 s estimate, a
        // 200 ms deadline on a full queue is infeasible.
        for i in 0..3 {
            queue.submit_insert(q(&format!("ins2-{i}"))).unwrap();
        }
        let tight = Instant::now() + Duration::from_millis(200);
        assert_eq!(
            queue.submit_or_shed(q("read-2"), Some(tight)),
            Err(SubmitError::Shed)
        );
        assert_eq!(queue.shed_queries(), 1);
    }

    #[test]
    fn cost_model_estimates_track_observations() {
        let model = CostModel::new();
        assert_eq!(model.estimate_query_cost(), None);
        // 1 ms filter + 100 candidates × 50 µs verify each = 6 ms/query.
        model.observe(100, 0.001, 0.005);
        let first = model.estimate_query_cost().unwrap();
        assert!((first.as_secs_f64() - 0.006).abs() < 1e-9, "{first:?}");
        // Repeated identical observations keep the estimate fixed.
        for _ in 0..50 {
            model.observe(100, 0.001, 0.005);
        }
        let settled = model.estimate_query_cost().unwrap();
        assert!((settled.as_secs_f64() - 0.006).abs() < 1e-9);
        // The EWMA converges toward a shifted workload...
        for _ in 0..100 {
            model.observe(200, 0.002, 0.020);
        }
        let shifted = model.estimate_query_cost().unwrap().as_secs_f64();
        assert!((shifted - 0.022).abs() < 0.002, "{shifted}");
        // ...and the regression extrapolates verify cost with candidate
        // count rather than averaging it away.
        assert!(shifted > settled.as_secs_f64() * 3.0);
        // Degenerate samples are ignored, not folded in.
        model.observe(10, f64::NAN, 1.0);
        model.observe(10, -1.0, 1.0);
        let after = model.estimate_query_cost().unwrap().as_secs_f64();
        assert!((after - shifted).abs() < 1e-12);
    }

    #[test]
    fn mutations_share_the_ticket_space_with_queries() {
        let queue = AdmissionQueue::new(ServiceOptions::new().queue_capacity(8));
        assert_eq!(queue.submit(q("read-0"), None), Ok(0));
        assert_eq!(queue.submit_insert(q("new-graph")), Ok(1));
        assert_eq!(queue.submit_remove(7), Ok(2));
        assert_eq!(queue.submit(q("read-1"), None), Ok(3));
        let wave = queue.drain_pending();
        assert_eq!(wave.len(), 4);
        assert!(!wave[0].op.is_mutation());
        assert!(wave[1].op.is_mutation());
        assert!(matches!(&wave[1].op, IngestOp::Insert(g) if g.name() == "new-graph"));
        assert!(matches!(wave[2].op, IngestOp::Remove(7)));
        assert!(wave[2].query().is_none());
        assert_eq!(wave[3].query().unwrap().name(), "read-1");
        // Mutations respect close like any other submission.
        queue.close();
        assert_eq!(queue.submit_insert(q("late")), Err(SubmitError::Closed));
        assert_eq!(queue.submit_remove(0), Err(SubmitError::Closed));
    }

    #[test]
    fn injected_admission_failure_is_transient_and_keeps_tickets_dense() {
        let plan = Arc::new(FaultPlan::new().fail_admission(1, 1));
        let queue = AdmissionQueue::new(
            ServiceOptions::new()
                .queue_capacity(8)
                .faults(Arc::clone(&plan)),
        );
        assert_eq!(queue.submit(q("a"), None), Ok(0));
        // The submission that would get ticket 1 is rejected once...
        assert_eq!(queue.submit(q("b"), None), Err(SubmitError::Injected));
        // ...and the retry gets the *same* ticket: no hole in the space.
        assert_eq!(queue.submit(q("b"), None), Ok(1));
        assert_eq!(queue.submit(q("c"), None), Ok(2));
        assert_eq!(plan.injected_admission_failures(), 1);
        let tickets: Vec<Ticket> = queue.drain_pending().iter().map(|a| a.ticket).collect();
        assert_eq!(tickets, vec![0, 1, 2]);
    }
}
