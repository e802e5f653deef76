//! Open-loop serving soak: deterministic saturation sweeps through the
//! admission door and the sharded drain loop.
//!
//! The closed-loop integration tests can never observe saturation —
//! offered load adapts to capacity by construction. This soak replays
//! seeded open-loop schedules ([`sqbench_harness::loadgen`]) at a fraction
//! of, at, and at multiples of the service's measured capacity, and pins
//! the SLO contract of the serving stack (the CI `openloop-soak` step runs
//! exactly this binary):
//!
//! * **no lost tickets** — every arrival is admitted, shed or refused, and
//!   every admitted ticket drains into exactly one record;
//! * **sheds only above capacity** — sheds appear under real saturation;
//!   at a quarter of capacity the cost-aware door sheds at most a quarter
//!   of what it sheds at 4x (zero on a quiet machine);
//! * **tails track load but respect the budget** — latency percentiles
//!   grow from the unloaded baseline under saturation, yet stay bounded by
//!   the per-query deadline budget (the admission door and per-query
//!   completion refuse to let the tail run away);
//! * **a stalled shard is isolated** — per-query completion keeps the
//!   p50 of the queries that still complete near the unloaded baseline
//!   instead of gating every query on the slowest shard.
//!
//! Schedules are seeded, but wall-clock pacing makes absolute timings
//! machine-dependent; every assertion is therefore *relative* (to measured
//! capacity, to the budget, to the unloaded baseline) with wide margins.

use sqbench_generator::{GraphGen, GraphGenConfig, QueryGen};
use sqbench_graph::{Dataset, Graph};
use sqbench_harness::loadgen::{run_open_loop, ArrivalProcess, LoadGenConfig, OpenLoopReport};
use sqbench_harness::metrics::StageTotals;
use sqbench_harness::service::{
    AdmissionQueue, FaultPlan, QueryOutcome, ServiceOptions, ShardedQueryRecord, ShardedService,
};
use sqbench_index::{MethodConfig, MethodKind};
use std::sync::Arc;
use std::time::Duration;

const SHARDS: usize = 2;

fn setup(graphs: usize, pool: usize) -> (Dataset, Vec<Graph>) {
    let ds = GraphGen::new(
        GraphGenConfig::default()
            .with_graph_count(graphs)
            .with_avg_nodes(10)
            .with_avg_density(0.2)
            .with_label_count(6)
            .with_seed(20150831),
    )
    .generate();
    let queries = QueryGen::new(0x0be5_7e11)
        .generate(&ds, pool, 4)
        .iter()
        .map(|(q, _)| q.clone())
        .collect();
    (ds, queries)
}

fn service_on(ds: &Dataset, faults: Option<Arc<FaultPlan>>) -> ShardedService {
    let mut opts = ServiceOptions::new()
        .shards(SHARDS)
        .workers(1)
        .workers_max(2);
    if let Some(plan) = faults {
        opts = opts.faults(plan);
    }
    ShardedService::new(MethodKind::Ggsx, &MethodConfig::fast(), ds, opts)
}

/// Closed-loop calibration: per-query seconds of the first (cold) and of
/// the fastest of `samples` 3-wave samples. The load multipliers and the
/// deadline budget are relative to these, so the soak exercises the same
/// regimes on any hardware class. A neighbour's CPU burst can only slow a
/// sample down: an arm that must saturate scales the fastest sample (one
/// slow sample would read capacity low, and "4x" would not saturate),
/// while an arm that must stay below capacity, the budget and the shed
/// door's seed cost scale the cold one.
fn calibrate(service: &mut ShardedService, pool: &[Graph], samples: usize) -> (f64, f64) {
    let refs: Vec<&Graph> = pool.iter().collect();
    let samples: Vec<f64> = (0..samples)
        .map(|_| {
            let started = std::time::Instant::now();
            let mut served = 0usize;
            for _ in 0..3 {
                served += service.run_wave(&refs, None).records.len();
            }
            (started.elapsed().as_secs_f64() / served as f64).max(1e-6)
        })
        .collect();
    (
        samples[0],
        samples.iter().copied().fold(f64::INFINITY, f64::min),
    )
}

struct SoakRun {
    open: OpenLoopReport,
    records: Vec<ShardedQueryRecord>,
    totals: StageTotals,
}

impl SoakRun {
    fn outcome_count(&self, want: fn(&QueryOutcome) -> bool) -> usize {
        self.records.iter().filter(|r| want(&r.outcome)).count()
    }

    /// Median end-to-end latency of the records `want` selects.
    fn median_latency_s(&self, want: fn(&QueryOutcome) -> bool) -> f64 {
        let mut lat: Vec<f64> = self
            .records
            .iter()
            .filter(|r| want(&r.outcome))
            .map(|r| r.latency_s)
            .collect();
        lat.sort_by(f64::total_cmp);
        if lat.is_empty() {
            0.0
        } else {
            lat[lat.len() / 2]
        }
    }
}

/// Replays one seeded open-loop schedule: a producer thread paces
/// `submit_or_shed` calls while this thread drains waves until the
/// schedule is exhausted and the queue is empty.
fn soak(
    service: &mut ShardedService,
    pool: &[Graph],
    queue_depth: usize,
    queries: usize,
    qps: f64,
    budget: Duration,
    seed_cost: Duration,
) -> SoakRun {
    let queue = AdmissionQueue::new(ServiceOptions::new().queue_capacity(queue_depth));
    queue.cost_model().seed(seed_cost);
    let config = LoadGenConfig::new(ArrivalProcess::Poisson { qps }, queries)
        .seed(0x50a4_0b5e)
        .deadline(budget);
    let (open, records, totals) = std::thread::scope(|scope| {
        let producer = scope.spawn(|| run_open_loop(&queue, pool, &config));
        let mut records = Vec::new();
        let mut totals = StageTotals::default();
        loop {
            let wave = service.drain(&queue, None);
            let idle = wave.records.is_empty();
            totals.merge(&wave.totals);
            records.extend(wave.records);
            if producer.is_finished() && queue.is_empty() {
                break;
            }
            if idle {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        let open = producer.join().expect("producer thread");
        (open, records, totals)
    });
    SoakRun {
        open,
        records,
        totals,
    }
}

/// Every arrival accounted for, every admitted ticket drained exactly once.
fn assert_no_lost_tickets(run: &SoakRun, label: &str) {
    assert_eq!(
        run.open.offered,
        run.open.admitted.len() + run.open.shed + run.open.refused,
        "{label}: open-loop accounting must cover every arrival"
    );
    let mut drained: Vec<_> = run.records.iter().map(|r| r.ticket).collect();
    drained.sort_unstable();
    assert_eq!(
        drained, run.open.admitted,
        "{label}: every admitted ticket must drain into exactly one record"
    );
}

#[test]
fn saturation_sweep_keeps_the_admission_and_latency_contract() {
    let (ds, pool) = setup(900, 8);
    let mut service = service_on(&ds, None);
    let (cold_s, best_s) = calibrate(&mut service, &pool, 7);
    let seed_cost = Duration::from_secs_f64(cold_s);
    // Generous enough that an unloaded run never brushes against it,
    // tight enough that saturation must shed rather than queue forever.
    let budget = Duration::from_secs_f64((cold_s * 16.0).max(0.005));

    let mut runs = Vec::new();
    for qps in [0.25 / cold_s, 2.0 / best_s, 4.0 / best_s] {
        runs.push(soak(&mut service, &pool, 8, 96, qps, budget, seed_cost));
    }
    let [low, sat2, sat4] = runs.try_into().ok().expect("three runs");

    // No lost tickets, at every saturation level.
    assert_no_lost_tickets(&low, "0.25x");
    assert_no_lost_tickets(&sat2, "2x");
    assert_no_lost_tickets(&sat4, "4x");

    // Sheds come from saturation, not from the door: real saturation sheds,
    // and a quarter of measured capacity sheds (next to) nothing. The pin is
    // the ratio between the two arms of this run rather than an absolute
    // zero — a neighbour's CPU burst during the 0.25x arm can still shed a
    // few of its 96 arrivals.
    assert!(
        sat4.open.shed > 0,
        "4x saturation with a bounded queue must shed at the door"
    );
    assert!(
        low.open.shed * 4 <= sat4.open.shed,
        "below capacity the admission door must not shed: {} shed at 0.25x, {} at 4x",
        low.open.shed,
        sat4.open.shed
    );

    // Tail percentiles are monotone from unloaded to saturated: queueing
    // under overload must show up in the tail. The p99 comparison takes
    // the heavier of the two saturated levels with a 25% allowance — a
    // single OS-scheduling hiccup in the *unloaded* run can push its p99
    // by milliseconds on a busy one-core box, and shedding legitimately
    // trims the 4x tail below the 2x tail.
    // A level that served nothing (a neighbour's burst can leave a 4x run
    // shedding or timing out every arrival) has no p50 to compare.
    let p99 = |run: &SoakRun| run.totals.latency_percentile(0.99);
    let p50 = |run: &SoakRun| run.totals.latency_percentile(0.50);
    let served = |run: &SoakRun| run.outcome_count(QueryOutcome::is_executed) > 0;
    assert!(
        [&sat2, &sat4]
            .iter()
            .all(|run| !served(run) || p50(&low) <= p50(run)),
        "saturated p50 ({:.4}s / {:.4}s) must not beat the unloaded p50 ({:.4}s)",
        p50(&sat2),
        p50(&sat4),
        p50(&low)
    );
    assert!(
        p99(&low) <= p99(&sat2).max(p99(&sat4)) * 1.25,
        "saturated p99 ({:.4}s / {:.4}s) must not beat the unloaded p99 ({:.4}s)",
        p99(&sat2),
        p99(&sat4),
        p99(&low)
    );
    // ... and yet bounded: per-query deadlines plus cost-aware shedding
    // cap the tail of *served* queries near the budget even at 4x offered
    // load (2x slack for finalize-sweep jitter on a loaded machine).
    for (label, run) in [("2x", &sat2), ("4x", &sat4)] {
        assert!(
            p99(run) <= budget.as_secs_f64() * 2.0,
            "{label}: p99 {:.4}s must stay near the {:.4}s budget",
            p99(run),
            budget.as_secs_f64()
        );
    }
}

#[test]
fn stalled_shard_leaves_completing_queries_near_the_unloaded_baseline() {
    let (ds, pool) = setup(900, 8);

    // Unloaded baseline: a quarter of capacity, no faults.
    let mut healthy = service_on(&ds, None);
    let (per_query_s, _) = calibrate(&mut healthy, &pool, 1);
    let capacity_qps = 1.0 / per_query_s;
    let seed_cost = Duration::from_secs_f64(per_query_s);
    let budget = Duration::from_secs_f64((per_query_s * 16.0).max(0.005));
    // A single-slot queue keeps admitted queries right next to the
    // service: under overload, late arrivals burn their budget *at the
    // door* (and shed) rather than deep in a queue they can never clear
    // in time — so the queries that do complete carry almost no wait and
    // their latency isolates the stall's effect.
    let depth = 1;
    let baseline = soak(
        &mut healthy,
        &pool,
        depth,
        96,
        capacity_qps * 0.25,
        budget,
        seed_cost,
    );
    assert_no_lost_tickets(&baseline, "baseline");
    let complete = |o: &QueryOutcome| *o == QueryOutcome::Complete;
    let p50_baseline = baseline.median_latency_s(complete);
    assert!(p50_baseline > 0.0, "baseline must complete queries");

    // 2x saturation with shard 0 stalled for a third of the run's span:
    // queries probing the sleeping shard degrade at their deadlines, but
    // per-query completion keeps serving everyone else — the stall must
    // not gate the whole stream the way a wave barrier would.
    let queries = 128usize;
    let qps = capacity_qps * 2.0;
    let stall = Duration::from_secs_f64(queries as f64 / qps / 3.0);
    let plan = Arc::new(FaultPlan::new().stall_shard(0, stall));
    let mut stalled = service_on(&ds, Some(plan));
    let run = soak(&mut stalled, &pool, depth, queries, qps, budget, seed_cost);
    assert_no_lost_tickets(&run, "stalled");

    let completed = run.outcome_count(complete);
    let degraded = run.outcome_count(|o| matches!(o, QueryOutcome::Degraded { .. }));
    eprintln!(
        "stall soak: {} complete, {} degraded, {} shed of {} offered; \
         p50 complete {:.3} ms vs baseline {:.3} ms (stall {:.1} ms, budget {:.1} ms)",
        completed,
        degraded,
        run.open.shed,
        run.open.offered,
        run.median_latency_s(complete) * 1e3,
        p50_baseline * 1e3,
        stall.as_secs_f64() * 1e3,
        budget.as_secs_f64() * 1e3,
    );
    assert!(
        degraded > 0,
        "the stalled shard must show up as degraded answers"
    );
    assert!(
        (completed + degraded) * 4 >= run.open.admitted.len(),
        "per-query completion must keep serving during the stall: only \
         {completed} complete + {degraded} degraded of {} admitted",
        run.open.admitted.len()
    );
    assert!(
        completed > 0,
        "queries clear of the stall must still complete exactly"
    );
    // The acceptance bar: the median completing query is within 2x of the
    // unloaded baseline median — the stall is isolated to the queries that
    // actually probed the sleeping shard while it slept.
    let p50_complete = run.median_latency_s(complete);
    assert!(
        p50_complete <= p50_baseline * 2.0,
        "p50 of completing queries {:.4}s must stay within 2x of the \
         unloaded baseline {:.4}s",
        p50_complete,
        p50_baseline
    );
}
