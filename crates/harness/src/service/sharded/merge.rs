//! The wave merge state machine: one [`Flight`] per query, folded from
//! the [`WaveEvent`]s the shard executors stream back, with heap-scheduled
//! retries (at most [`RETRY_ROUNDS`] per probe) and per-query deadline
//! abandonment.
//! `ShardedService::run_wave_inner` is the driver; every state transition
//! lives here.

use super::executor::{ProbeItem, Shard, ShardJob, WaveEvent};
use super::{ShardedQueryRecord, Wave};
use crate::metrics::StageTotals;
use crate::service::cache::AnswerEntry;
use crate::service::past;
use crate::service::stages::QueryOutcome;
use sqbench_graph::Graph;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Retry rounds a failed `(query, shard)` probe gets — panics and dead
/// pools, transient by assumption until the rounds are spent. Timed-out
/// probes are never retried: their budget is already gone by definition.
pub const RETRY_ROUNDS: u32 = 2;

/// Backoff before the first retry round; it doubles every round.
const RETRY_BACKOFF: Duration = Duration::from_micros(500);

/// When retry round `round` (< [`RETRY_ROUNDS`]) may run, or `None` when it
/// may not: a retry scheduled at or past the query's deadline could only
/// produce a timed-out probe, so a backoff that does not fit the remaining
/// budget is refused.
fn retry_at(round: u32, now: Instant, deadline: Option<Instant>) -> Option<Instant> {
    let backoff = RETRY_BACKOFF * (1 << round);
    deadline
        .is_none_or(|d| backoff < d.saturating_duration_since(now))
        .then(|| now + backoff)
}

/// One query's in-flight state while its wave is being merged.
struct Flight {
    /// The record under construction — returned as-is once finalized.
    record: ShardedQueryRecord,
    /// An owning handle to the query for the persistent executors — one
    /// clone per probed query for the whole wave; `None` for queries no
    /// shard is asked about (memo hits, queries routed nowhere).
    query: Option<Arc<Graph>>,
    /// Probed shards that delivered a result.
    done: usize,
    /// Probed shards that failed beyond the retry budget.
    failed: usize,
    /// Probed shards whose probe timed out (never retried).
    timed_out: usize,
    /// Probes currently executing (or queued) on shard executors.
    outstanding: usize,
    /// Probes waiting on the retry heap for their backoff to elapse.
    pending_retries: usize,
    /// Longest shard-local queue wait seen so far.
    shard_wait_s: f64,
    /// The query's effective deadline: min(wave-wide, its own).
    deadline: Option<Instant>,
    finalized: bool,
}

/// The per-wave merge state: one [`Flight`] per query plus the retry
/// schedule, the running totals and the wave's side of the executor
/// channels. Owned by the wave thread; shard executors only ever talk to
/// it through [`WaveEvent`]s.
pub(super) struct WaveMerge<'w> {
    flights: Vec<Flight>,
    per_shard: Vec<StageTotals>,
    totals: StageTotals,
    /// Retry rounds spent per `(query, shard)` pair.
    rounds: HashMap<(usize, usize), u32>,
    /// Min-heap of `(due, query, shard)` retries awaiting their backoff.
    retry_heap: BinaryHeap<Reverse<(Instant, usize, usize)>>,
    /// Flights not yet finalized — the driver loop's exit condition.
    remaining: usize,
    wave_started: Instant,
    admission_wait_s: Option<&'w [f64]>,
    shards: &'w [Shard],
    /// One fresh reply channel per wave: when this wave abandons a flight
    /// (deadline) or returns, late executor replies land on a dead channel
    /// and vanish instead of corrupting a later wave.
    reply: Sender<WaveEvent>,
    events: Receiver<WaveEvent>,
}

impl<'w> WaveMerge<'w> {
    /// Opens one flight per query of `wave`. `plan[s]` lists the wave
    /// indices shard `s` will be asked about; nothing is dispatched yet.
    pub(super) fn new(shards: &'w [Shard], wave: &Wave<'w>, plan: &[Vec<usize>]) -> Self {
        let mut probes_of = vec![0usize; wave.queries.len()];
        for &qi in plan.iter().flatten() {
            probes_of[qi] += 1;
        }
        let flights = (0..wave.queries.len())
            .map(|qi| Flight {
                record: ShardedQueryRecord {
                    ticket: wave.tickets[qi],
                    answers: Vec::new(),
                    candidate_count: 0,
                    candidates_pruned: 0,
                    queue_wait_s: 0.0,
                    cache_probe_s: 0.0,
                    filter_s: 0.0,
                    verify_s: 0.0,
                    latency_s: 0.0,
                    outcome: QueryOutcome::Complete,
                    retries: 0,
                    shards_probed: probes_of[qi],
                    shards_skipped: shards.len() - probes_of[qi],
                },
                query: (probes_of[qi] > 0).then(|| Arc::new(wave.queries[qi].clone())),
                done: 0,
                failed: 0,
                timed_out: 0,
                outstanding: 0,
                pending_retries: 0,
                shard_wait_s: 0.0,
                deadline: wave.deadline_of(qi),
                finalized: false,
            })
            .collect();
        let (reply, events) = mpsc::channel();
        WaveMerge {
            flights,
            per_shard: vec![StageTotals::default(); shards.len()],
            totals: StageTotals::default(),
            rounds: HashMap::new(),
            retry_heap: BinaryHeap::new(),
            remaining: wave.queries.len(),
            wave_started: Instant::now(),
            admission_wait_s: wave.admission_wait_s,
            shards,
            reply,
            events,
        }
    }

    /// Flights not yet finalized.
    pub(super) fn remaining(&self) -> usize {
        self.remaining
    }

    /// Closes the merge: the records in wave order, the per-shard totals
    /// and the merged totals.
    pub(super) fn finish(self) -> (Vec<ShardedQueryRecord>, Vec<StageTotals>, StageTotals) {
        let records = self.flights.into_iter().map(|f| f.record).collect();
        (records, self.per_shard, self.totals)
    }

    /// Serves query `qi` from a whole-answer memo hit: the record is
    /// synthesized from the cached entry (answers are already sorted
    /// global ids; candidate accounting carries over from the run that
    /// populated the memo) and the flight finalizes on the spot.
    pub(super) fn serve_from_memo(&mut self, qi: usize, entry: &AnswerEntry, probe_s: f64) {
        let admission_wait = self.admission_wait_s.map_or(0.0, |w| w[qi]);
        let flight = &mut self.flights[qi];
        let record = &mut flight.record;
        record.answers = entry.answers.clone();
        record.candidate_count = entry.candidate_count;
        record.candidates_pruned = entry.candidates_pruned;
        record.queue_wait_s = admission_wait;
        record.cache_probe_s = probe_s;
        record.latency_s = admission_wait + probe_s;
        flight.finalized = true;
        self.remaining -= 1;
        self.totals
            .add_query(admission_wait, probe_s, 0.0, 0.0, entry.candidates_pruned);
        self.totals.observe_latency(record.latency_s);
    }

    /// Ships every shard its planned probes, then finalizes the queries
    /// with nothing in flight — admitted by no shard, or whose every
    /// dispatch failed beyond retry. From here the wave is event-driven.
    pub(super) fn launch(&mut self, plan: &[Vec<usize>]) {
        for (s, slots) in plan.iter().enumerate() {
            if !slots.is_empty() {
                self.dispatch(s, slots);
            }
        }
        let now = Instant::now();
        for qi in 0..self.flights.len() {
            self.maybe_finalize(qi, now);
        }
    }

    /// Sends the probes of `slots` to shard `s` as one job. A dead
    /// executor (pool infrastructure, not a query panic) fails every probe
    /// of the job — retryable.
    fn dispatch(&mut self, s: usize, slots: &[usize]) {
        let items = slots
            .iter()
            .map(|&qi| {
                let flight = &self.flights[qi];
                ProbeItem {
                    slot: qi,
                    query: Arc::clone(flight.query.as_ref().expect("probed flights own a query")),
                    deadline: flight.deadline,
                    ticket: flight.record.ticket,
                }
            })
            .collect();
        let shard = &self.shards[s];
        shard.backlog.fetch_add(slots.len(), Ordering::Relaxed);
        let job = ShardJob {
            items,
            reply: self.reply.clone(),
        };
        if shard.jobs.send(job).is_ok() {
            for &qi in slots {
                self.flights[qi].outstanding += 1;
            }
        } else {
            shard.backlog.fetch_sub(slots.len(), Ordering::Relaxed);
            let now = Instant::now();
            for &qi in slots {
                self.fail_probe(qi, s, now);
            }
        }
    }

    /// Folds every event already buffered. The driver calls this before
    /// any deadline sweep: a result that arrived in time is never
    /// abandoned.
    pub(super) fn drain_ready(&mut self) {
        while let Ok(event) = self.events.try_recv() {
            self.handle(event);
        }
    }

    /// Re-dispatches every retry whose backoff has elapsed.
    pub(super) fn fire_due_retries(&mut self) {
        while let Some(&Reverse((due, qi, s))) = self.retry_heap.peek() {
            if due > Instant::now() {
                break;
            }
            self.retry_heap.pop();
            if self.flights[qi].finalized {
                continue;
            }
            self.flights[qi].pending_retries -= 1;
            self.flights[qi].record.retries += 1;
            self.dispatch(s, &[qi]);
            self.maybe_finalize(qi, Instant::now());
        }
    }

    /// Deadline abandonment: a flight past its deadline finalizes from what
    /// its shards delivered so far (degraded, sound) instead of waiting out
    /// a stalled shard.
    pub(super) fn sweep_deadlines(&mut self) {
        let now = Instant::now();
        for qi in 0..self.flights.len() {
            let flight = &self.flights[qi];
            if !flight.finalized && past(flight.deadline, now) {
                self.finalize(qi, now);
            }
        }
    }

    /// The next instant the merge must act without an event: the earliest
    /// retry due time or open-flight deadline, if any.
    fn next_wake(&self) -> Option<Instant> {
        let next_retry = self.retry_heap.peek().map(|&Reverse((due, _, _))| due);
        let next_deadline = self
            .flights
            .iter()
            .filter(|f| !f.finalized)
            .filter_map(|f| f.deadline)
            .min();
        [next_retry, next_deadline].into_iter().flatten().min()
    }

    /// Sleeps until whichever comes first — the next event (folded on
    /// arrival), retry due time or deadline.
    pub(super) fn wait(&mut self) {
        let event = match self.next_wake() {
            None => self
                .events
                .recv()
                .map_err(|_| RecvTimeoutError::Disconnected),
            Some(at) => self
                .events
                .recv_timeout(at.saturating_duration_since(Instant::now())),
        };
        match event {
            Ok(event) => self.handle(event),
            Err(RecvTimeoutError::Timeout) => {}
            // Unreachable while `self` holds `reply`; settle every open
            // flight defensively rather than spin on a dead channel.
            Err(RecvTimeoutError::Disconnected) => {
                let now = Instant::now();
                for qi in 0..self.flights.len() {
                    if !self.flights[qi].finalized {
                        self.finalize(qi, now);
                    }
                }
            }
        }
    }

    /// Folds one `(query, shard)` completion into its flight. Events for
    /// an already-finalized flight are late replies from an abandoned
    /// probe and are dropped.
    fn handle(&mut self, event: WaveEvent) {
        let WaveEvent {
            shard,
            slot,
            outcome,
            record,
        } = event;
        if self.flights[slot].finalized {
            return;
        }
        self.flights[slot].outstanding -= 1;
        match record {
            Some(record) => {
                self.per_shard[shard].add_query(
                    record.queue_wait_s,
                    record.cache_probe_s,
                    record.filter_s,
                    record.verify_s,
                    record.candidates_pruned,
                );
                let flight = &mut self.flights[slot];
                let merged = &mut flight.record;
                // The executor mapped answers to global ids already.
                merged.answers.extend(record.answers.iter().copied());
                merged.candidate_count += record.candidate_count;
                merged.candidates_pruned += record.candidates_pruned;
                flight.shard_wait_s = flight.shard_wait_s.max(record.queue_wait_s);
                merged.cache_probe_s += record.cache_probe_s;
                merged.filter_s += record.filter_s;
                merged.verify_s += record.verify_s;
                flight.done += 1;
            }
            None => match outcome {
                // Timed-out probes are never retried: their deadline
                // budget is spent by definition.
                QueryOutcome::TimedOut => self.flights[slot].timed_out += 1,
                _ => self.fail_probe(slot, shard, Instant::now()),
            },
        }
        self.maybe_finalize(slot, Instant::now());
    }

    /// Registers a failed `(query, shard)` probe: schedules a retry with
    /// exponential backoff while the per-pair budget and the query's
    /// deadline allow, else counts the probe as failed for good.
    fn fail_probe(&mut self, qi: usize, shard: usize, now: Instant) {
        let flight = &mut self.flights[qi];
        let round = self.rounds.entry((qi, shard)).or_insert(0);
        if *round < RETRY_ROUNDS {
            if let Some(due) = retry_at(*round, now, flight.deadline) {
                *round += 1;
                flight.pending_retries += 1;
                self.retry_heap.push(Reverse((due, qi, shard)));
                return;
            }
        }
        flight.failed += 1;
    }

    /// Finalizes `qi` iff nothing of it is in flight or awaiting retry.
    fn maybe_finalize(&mut self, qi: usize, now: Instant) {
        let flight = &self.flights[qi];
        if !flight.finalized && flight.outstanding == 0 && flight.pending_retries == 0 {
            self.finalize(qi, now);
        }
    }

    /// Settles query `qi`'s outcome from whatever its shards delivered by
    /// `now` and closes the flight. Probes still outstanding or awaiting
    /// retry count as missing — this is the deadline-abandonment path.
    fn finalize(&mut self, qi: usize, now: Instant) {
        let admission_wait = self.admission_wait_s.map_or(0.0, |w| w[qi]);
        let flight = &mut self.flights[qi];
        flight.finalized = true;
        self.remaining -= 1;
        let record = &mut flight.record;
        // Total queue wait = time pending in the admission queue (open
        // waves only) + the in-wave wait for the slowest shard.
        record.queue_wait_s = admission_wait + flight.shard_wait_s;
        record.latency_s = admission_wait
            + now
                .saturating_duration_since(self.wave_started)
                .as_secs_f64();
        let missing =
            flight.failed + flight.timed_out + flight.outstanding + flight.pending_retries;
        record.outcome = if record.shards_probed == 0 {
            // Deadline parity with fan-out for zero-probe queries: a
            // fanned-out wave would have had every shard skip a
            // past-deadline query, so a routed query that no shard admits
            // must not dodge its deadline just because its (empty) answer
            // was free — the same `past` predicate the workers apply at
            // claim time.
            if past(flight.deadline, now) {
                QueryOutcome::TimedOut
            } else {
                QueryOutcome::Complete
            }
        } else if missing == 0 {
            QueryOutcome::Complete
        } else if flight.done > 0 {
            // Graceful degradation: some probed shards delivered within
            // the budget, others did not. The partial union is sound
            // (verification is exact on every shard), so report it flagged
            // rather than blocking on — or discarding — the whole query.
            QueryOutcome::Degraded {
                shards_missing: missing,
            }
        } else if flight.failed > 0 {
            QueryOutcome::Failed
        } else {
            QueryOutcome::TimedOut
        };
        if record.outcome.is_executed() {
            // Shards partition the id space, so the concatenation is
            // duplicate-free; sorting restores global id order.
            record.answers.sort_unstable();
            self.totals.add_query(
                record.queue_wait_s,
                record.cache_probe_s,
                record.filter_s,
                record.verify_s,
                record.candidates_pruned,
            );
            self.totals.observe_latency(record.latency_s);
        } else {
            // No shard delivered: report an explicit non-answer, not a
            // silently empty answer set.
            record.answers.clear();
            record.candidate_count = 0;
            record.candidates_pruned = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::setup;
    use super::*;
    use crate::service::fault::{silence_injected_panics, FaultPlan};
    use crate::service::{AdmissionQueue, ServiceOptions, ShardedService};
    use sqbench_index::{build_index, MethodConfig, MethodKind};

    /// Tentpole: a transient verify panic is retried with backoff and the
    /// query comes back `Complete`, bit-identical to the oracle — the
    /// fault is invisible except in the retry counter.
    #[test]
    fn transient_panic_is_retried_to_completion() {
        silence_injected_panics();
        let (ds, queries) = setup(14, 5);
        let refs: Vec<&Graph> = queries.iter().collect();
        let plan = Arc::new(FaultPlan::new().panic_in_verify(1, 1).panic_in_verify(3, 1));
        let mut service = ShardedService::new(
            MethodKind::Ggsx,
            &MethodConfig::fast(),
            &ds,
            ServiceOptions::new().shards(2).faults(Arc::clone(&plan)),
        );
        let report = service.run_wave(&refs, None);
        assert_eq!(plan.injected_panics(), 2);
        assert_eq!(report.complete(), queries.len());
        assert_eq!(report.failed(), 0);
        assert!(report.retries() >= 2, "retries: {}", report.retries());
        let oracle = build_index(MethodKind::Ggsx, &MethodConfig::fast(), &ds);
        for (record, query) in report.records.iter().zip(queries.iter()) {
            assert_eq!(record.answers, oracle.query(&ds, query).answers);
        }
        // The poisoned tickets carry their retry count; untouched ones 0.
        assert!(report.records[1].retries >= 1);
        assert_eq!(report.records[0].retries, 0);
    }

    /// Tentpole: a panic that outlives the retry budget fails *only* its
    /// own query — the rest of the wave completes exactly, and the fleet
    /// keeps serving the next wave.
    #[test]
    fn permanent_panic_fails_one_query_and_spares_the_wave() {
        silence_injected_panics();
        let (ds, queries) = setup(14, 5);
        let refs: Vec<&Graph> = queries.iter().collect();
        // Budget 6 = 2 shards × (1 initial + 2 retry rounds): the panic
        // outlives every retry of the first wave, then the fault clears.
        let plan = Arc::new(FaultPlan::new().panic_in_verify(2, 6));
        let mut service = ShardedService::new(
            MethodKind::Ggsx,
            &MethodConfig::fast(),
            &ds,
            ServiceOptions::new().shards(2).faults(Arc::clone(&plan)),
        );
        let report = service.run_wave(&refs, None);
        assert_eq!(plan.injected_panics(), 6);
        assert_eq!(report.records[2].outcome, QueryOutcome::Failed);
        assert!(report.records[2].answers.is_empty());
        assert_eq!(report.failed(), 1);
        assert_eq!(report.complete(), queries.len() - 1);
        let oracle = build_index(MethodKind::Ggsx, &MethodConfig::fast(), &ds);
        for (qi, (record, query)) in report.records.iter().zip(queries.iter()).enumerate() {
            if qi != 2 {
                assert_eq!(record.answers, oracle.query(&ds, query).answers);
            }
        }
        // The pool survives: the next (fault-exhausted) wave is clean.
        let next = service.run_wave(&refs, None);
        assert_eq!(next.complete(), queries.len());
        assert_eq!(next.failed(), 0);
    }

    /// Tentpole: a stalled shard exhausts the deadline budget and the
    /// merge returns the *partial union* of the healthy shards flagged
    /// `Degraded` — sound (a subset of the oracle answers), not blocking,
    /// not silently incomplete.
    #[test]
    fn stalled_shard_degrades_to_a_sound_partial_answer() {
        let (ds, queries) = setup(16, 4);
        let plan = Arc::new(FaultPlan::new().stall_shard(0, Duration::from_millis(300)));
        let mut service = ShardedService::new(
            MethodKind::Ggsx,
            &MethodConfig::fast(),
            &ds,
            ServiceOptions::new().shards(2).faults(plan),
        );
        let queue = AdmissionQueue::new(ServiceOptions::new().queue_capacity(8));
        let deadline = Instant::now() + Duration::from_millis(60);
        for query in &queries {
            queue.submit(query.clone(), Some(deadline)).unwrap();
        }
        let report = service.drain(&queue, None);
        // Shard 0 wakes up long past every deadline, shard 1 answers in
        // microseconds: every query must degrade to shard 1's half.
        assert_eq!(report.degraded(), queries.len());
        let oracle = build_index(MethodKind::Ggsx, &MethodConfig::fast(), &ds);
        for (record, query) in report.records.iter().zip(queries.iter()) {
            assert_eq!(record.outcome, QueryOutcome::Degraded { shards_missing: 1 });
            let expected = oracle.query(&ds, query).answers;
            assert!(
                record.answers.iter().all(|id| expected.contains(id)),
                "degraded answers must be a subset of the oracle's"
            );
        }
    }

    /// The retry budget at its boundary, one row per case. The test itself
    /// never sleeps; the merge's own backoffs add at most 1.5 ms a row.
    /// Panic budgets are per ticket and shared by every shard that probes
    /// it, so which shard absorbs them is a race: the exact rows run one
    /// shard, and the two-shard row panics on every attempt of both.
    #[test]
    fn retry_budget_boundary() {
        struct Row {
            case: &'static str,
            shards: usize,
            panics: u32,
            deadline: Option<Duration>,
            outcomes: &'static [QueryOutcome],
            retries: u32,
        }
        const COMPLETE: &[QueryOutcome] = &[QueryOutcome::Complete];
        const FAILED: &[QueryOutcome] = &[QueryOutcome::Failed];
        let rows = [
            Row {
                case: "no panic",
                shards: 1,
                panics: 0,
                deadline: None,
                outcomes: COMPLETE,
                retries: 0,
            },
            Row {
                case: "as many panics as the budget absorbs heal",
                shards: 1,
                panics: RETRY_ROUNDS,
                deadline: None,
                outcomes: COMPLETE,
                retries: RETRY_ROUNDS,
            },
            Row {
                case: "one panic more fails",
                shards: 1,
                panics: RETRY_ROUNDS + 1,
                deadline: None,
                outcomes: FAILED,
                retries: RETRY_ROUNDS,
            },
            Row {
                case: "every attempt of both shards panics",
                shards: 2,
                panics: 2 * (RETRY_ROUNDS + 1),
                deadline: None,
                outcomes: FAILED,
                retries: 2 * RETRY_ROUNDS,
            },
            // `TimedOut` when the worker claims the query after its
            // deadline; either way no retry is scheduled.
            Row {
                case: "a deadline shorter than the first backoff",
                shards: 1,
                panics: 1,
                deadline: Some(RETRY_BACKOFF / 2),
                outcomes: &[QueryOutcome::Failed, QueryOutcome::TimedOut],
                retries: 0,
            },
        ];
        silence_injected_panics();
        let (ds, queries) = setup(12, 1);
        let expected = build_index(MethodKind::Ggsx, &MethodConfig::fast(), &ds)
            .query(&ds, &queries[0])
            .answers;
        for row in rows {
            let plan = Arc::new(FaultPlan::new().panic_in_verify(0, row.panics));
            let mut service = ShardedService::new(
                MethodKind::Ggsx,
                &MethodConfig::fast(),
                &ds,
                ServiceOptions::new()
                    .shards(row.shards)
                    .faults(Arc::clone(&plan)),
            );
            let deadline = row.deadline.map(|budget| Instant::now() + budget);
            let record = &service.run_wave(&[&queries[0]], deadline).records[0];
            let case = row.case;
            assert!(
                row.outcomes.contains(&record.outcome),
                "{case}: {:?}",
                record.outcome
            );
            assert_eq!(record.retries, row.retries, "{case}: retries");
            if row.deadline.is_none() {
                assert_eq!(plan.injected_panics(), u64::from(row.panics), "{case}");
            }
            if record.outcome == QueryOutcome::Complete {
                assert_eq!(record.answers, expected, "{case}: answers");
            } else {
                assert!(record.answers.is_empty(), "{case}: answers");
            }
        }
        // The schedule itself, at a fixed instant: 500 µs, then 1 ms, each
        // refused once it no longer fits strictly inside the deadline.
        let now = Instant::now();
        let at = |round, budget: Option<Duration>| retry_at(round, now, budget.map(|b| now + b));
        assert_eq!(at(0, None), Some(now + RETRY_BACKOFF));
        assert_eq!(at(1, None), Some(now + 2 * RETRY_BACKOFF));
        assert_eq!(at(0, Some(RETRY_BACKOFF)), None);
        assert_eq!(
            at(0, Some(RETRY_BACKOFF + Duration::from_nanos(1))),
            Some(now + RETRY_BACKOFF)
        );
        assert_eq!(at(1, Some(2 * RETRY_BACKOFF)), None);
    }
}
