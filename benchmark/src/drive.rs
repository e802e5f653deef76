//! Driving the real serving path with one closed-loop client: submit a wave
//! of W queries, block until all W answers are back, check them, repeat.

use crate::workloads::{method_config, Burst, Inputs, Oracle, Pass, Schedule, Spec, METHODS};
use sqbench_graph::{Dataset, Graph, GraphId};
use sqbench_harness::metrics::{counted_false_positive_ratio, CacheCounters};
use sqbench_harness::service::{
    AdmissionQueue, QueryOutcome, QueryService, ShardStrategy, ShardedService,
};
use sqbench_index::{build_index, GraphIndex, MethodKind, Tombstones};
use std::time::{Duration, Instant};

/// Times each method is set up from scratch; `setup_s` takes the median.
pub const SETUP_REPS: usize = 3;
/// Timed passes a method runs at least, however small the time budget.
const MIN_TIMED_PASSES: usize = 3;
/// How long one method runs before the next takes its turn.
const SLICE: Duration = Duration::from_millis(500);
/// The untimed opening of a turn. The other methods' turns emptied the
/// processor caches, and a method is back at its speed only after tens of
/// milliseconds of its own waves (GGSX's trie walks take about 100 ms), so
/// these waves stay out of the throughput and the wave percentiles.
const REWARM: Duration = Duration::from_millis(100);

/// What set-up produces: the loaded index (the batch service borrows it) or
/// the sharded service with its admission queue.
pub enum Backend {
    Index(Box<dyn GraphIndex>),
    Sharded(Box<ShardedService>, AdmissionQueue),
}

impl Backend {
    pub fn build(kind: MethodKind, spec: &Spec, dataset: &Dataset) -> Backend {
        let config = method_config();
        if spec.sharded.is_none() {
            return Backend::Index(build_index(kind, &config, dataset));
        }
        let opts = spec.service_options();
        Backend::Sharded(
            Box::new(ShardedService::new(kind, &config, dataset, opts.clone())),
            AdmissionQueue::new(opts),
        )
    }

    pub fn index_bytes(&self) -> usize {
        match self {
            Backend::Index(index) => index.size_bytes(),
            Backend::Sharded(service, _) => service.stats().size_bytes,
        }
    }

    pub fn server<'a>(&'a mut self, spec: &Spec, dataset: &'a Dataset) -> Server<'a> {
        match self {
            Backend::Index(index) => Server::batch(&**index, dataset, spec),
            Backend::Sharded(service, queue) => Server::Sharded(service, queue),
        }
    }
}

/// The two serving paths behind one wave/burst interface.
pub enum Server<'a> {
    Batch(Box<QueryService<'a>>),
    Sharded(&'a mut ShardedService, &'a AdmissionQueue),
}

/// One read as the service reported it.
pub struct Read {
    /// `None` unless the outcome was `Complete`.
    pub answers: Option<Vec<GraphId>>,
    pub candidates: usize,
    pub shards_probed: usize,
}

pub struct WaveOutcome {
    /// First submit → last answer.
    pub wall_s: f64,
    pub reads: Vec<Read>,
    /// Filter / verify seconds the service itself booked for the wave.
    pub filter_s: f64,
    pub verify_s: f64,
}

impl<'a> Server<'a> {
    /// The batch service over a loaded index, arenas pre-sized.
    pub fn batch(index: &'a dyn GraphIndex, dataset: &'a Dataset, spec: &Spec) -> Server<'a> {
        let mut service = QueryService::new(index, dataset, spec.service_options());
        service.prewarm();
        Server::Batch(Box::new(service))
    }

    pub fn wave(&mut self, queries: &[&Graph]) -> WaveOutcome {
        match self {
            Server::Batch(service) => {
                let started = Instant::now();
                let report = service.run_batch(queries, None);
                let wall_s = started.elapsed().as_secs_f64();
                let reads = report
                    .records
                    .into_iter()
                    .zip(&report.outcomes)
                    .map(|(record, outcome)| match record {
                        Some(r) if *outcome == QueryOutcome::Complete => Read {
                            answers: Some(r.answers),
                            candidates: r.candidate_count,
                            shards_probed: 1,
                        },
                        _ => Read {
                            answers: None,
                            candidates: 0,
                            shards_probed: 1,
                        },
                    })
                    .collect();
                WaveOutcome {
                    wall_s,
                    reads,
                    filter_s: report.totals.filter_s,
                    verify_s: report.totals.verify_s,
                }
            }
            Server::Sharded(service, queue) => {
                // The client owns its queries; `submit` takes them by value.
                let owned: Vec<Graph> = queries.iter().map(|&q| q.clone()).collect();
                let started = Instant::now();
                let refused = owned
                    .into_iter()
                    .map(|q| queue.submit(q, None))
                    .filter(Result::is_err)
                    .count();
                let report = service.drain(queue, None);
                let wall_s = started.elapsed().as_secs_f64();
                let mut reads: Vec<Read> = report
                    .records
                    .into_iter()
                    .map(|r| Read {
                        answers: (r.outcome == QueryOutcome::Complete).then_some(r.answers),
                        candidates: r.candidate_count,
                        shards_probed: r.shards_probed,
                    })
                    .collect();
                if refused > 0 || reads.len() != queries.len() {
                    // A refused submit breaks the record ↔ query alignment:
                    // count the whole wave as failed rather than guess.
                    reads = queries
                        .iter()
                        .map(|_| Read {
                            answers: None,
                            candidates: 0,
                            shards_probed: 0,
                        })
                        .collect();
                }
                WaveOutcome {
                    wall_s,
                    reads,
                    filter_s: report.totals.filter_s,
                    verify_s: report.totals.verify_s,
                }
            }
        }
    }

    /// Submits the burst's inserts then removes and drains them. Returns the
    /// wall seconds and how many of the writes were refused or not applied.
    pub fn burst(&mut self, burst: Burst) -> (f64, u64) {
        let Server::Sharded(service, queue) = self else {
            panic!("only the sharded path takes writes");
        };
        let writes = burst.inserts.len() + burst.removes.len();
        let started = Instant::now();
        for graph in burst.inserts {
            let _ = queue.submit_insert(graph);
        }
        for id in burst.removes {
            let _ = queue.submit_remove(id);
        }
        let report = service.drain(queue, None);
        let wall_s = started.elapsed().as_secs_f64();
        let applied = report.inserts_applied + report.removes_applied;
        (wall_s, writes.saturating_sub(applied) as u64)
    }

    pub fn cache_counters(&self) -> CacheCounters {
        match self {
            Server::Batch(service) => service.cache_counters(),
            Server::Sharded(service, _) => service.cache_counters(),
        }
    }

    /// What a write does to the caches, without the write: lets a traced
    /// pass restart from the cold state a burst leaves behind.
    pub fn invalidate_caches(&self) {
        match self {
            Server::Batch(service) => service.invalidate_caches(),
            Server::Sharded(service, _) => service.invalidate_caches(),
        }
    }
}

/// Mirrors where round-robin ingest puts each write and asks the library's
/// own `Tombstones::should_compact` rule whether a remove purges payloads —
/// the benchmark cannot see inside a shard, but the placement rule
/// (`global_id % shards`) and the rule's inputs (dead count, universe) are
/// public.
pub struct CompactionMirror {
    shards: Vec<(Tombstones, usize)>,
    pub compactions: u64,
}

impl CompactionMirror {
    pub fn new(spec: &Spec, dataset: &Dataset) -> Self {
        assert_eq!(
            spec.strategy(),
            ShardStrategy::RoundRobin,
            "mirror knows the round-robin rule only"
        );
        let shards = spec.shards();
        CompactionMirror {
            shards: (0..shards)
                .map(|s| {
                    let universe = dataset.len() / shards + usize::from(s < dataset.len() % shards);
                    (Tombstones::new(), universe)
                })
                .collect(),
            compactions: 0,
        }
    }

    pub fn every_shard_compacting(&self) -> bool {
        self.shards
            .iter()
            .all(|(dead, universe)| dead.should_compact(*universe))
    }

    pub fn apply(&mut self, burst: &Burst, first_new_id: GraphId) {
        let shards = self.shards.len();
        for i in 0..burst.inserts.len() {
            self.shards[(first_new_id + i) % shards].1 += 1;
        }
        for &id in &burst.removes {
            let (dead, universe) = &mut self.shards[id % shards];
            // Only the count matters to the rule, so any fresh id will do.
            dead.mark(dead.len());
            if dead.should_compact(*universe) {
                self.compactions += 1;
            }
        }
    }
}

/// What the cache counters gained between two readings.
pub fn counters_since(before: CacheCounters, after: CacheCounters) -> CacheCounters {
    CacheCounters {
        feature_hits: after.feature_hits - before.feature_hits,
        feature_misses: after.feature_misses - before.feature_misses,
        answer_hits: after.answer_hits - before.answer_hits,
        answer_misses: after.answer_misses - before.answer_misses,
        evictions: after.evictions - before.evictions,
    }
}

/// Running totals of one method's checked operations.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reads: u64,
    pub shards_probed: u64,
    pub filter_s: f64,
    pub verify_s: f64,
}

/// One pass as measured.
pub struct PassOutcome {
    pub correct_reads: u64,
    /// Σ wave walls, plus the burst's wall when there is one.
    pub wall_s: f64,
    pub wave_ms: Vec<f64>,
    /// `(candidates, answers)` per read, for the Eq. 3 FP ratio.
    pub fp_counts: Vec<(usize, usize)>,
}

/// Runs pass `p` through the server, checking every answer against the
/// oracle (outside the timed sections).
pub fn run_pass(
    server: &mut Server<'_>,
    inputs: &Inputs,
    oracle: &Oracle,
    pass: Pass,
    p: usize,
    tally: &mut Tally,
) -> PassOutcome {
    let mut out = PassOutcome {
        correct_reads: 0,
        wall_s: 0.0,
        wave_ms: Vec::with_capacity(pass.waves.len()),
        fp_counts: Vec::new(),
    };
    for wave in &pass.waves {
        let queries: Vec<&Graph> = wave.iter().map(|&q| &inputs.queries[q as usize]).collect();
        let served = server.wave(&queries);
        out.wall_s += served.wall_s;
        out.wave_ms.push(served.wall_s * 1e3);
        tally.filter_s += served.filter_s;
        tally.verify_s += served.verify_s;
        for (&q, read) in wave.iter().zip(served.reads) {
            tally.attempted += 1;
            tally.reads += 1;
            tally.shards_probed += read.shards_probed as u64;
            match read.answers {
                Some(answers) if answers == oracle.expected(q, p) => {
                    out.correct_reads += 1;
                    out.fp_counts.push((read.candidates, answers.len()));
                }
                _ => tally.failed += 1,
            }
        }
    }
    if let Some(burst) = pass.burst {
        let writes = (burst.inserts.len() + burst.removes.len()) as u64;
        let (wall_s, failed) = server.burst(burst);
        out.wall_s += wall_s;
        tally.attempted += writes;
        tally.failed += failed;
    }
    out
}

/// Everything the untraced run keeps of one method.
pub struct MethodRun {
    pub setup_s: Vec<f64>,
    pub index_bytes: usize,
    /// Correct reads per second of pass wall, one value per timed pass.
    pub pass_qps: Vec<f64>,
    pub wave_ms: Vec<f64>,
    /// Eq. 3 FP ratio over the first timed pass.
    pub fp_ratio: f64,
    pub tally: Tally,
    pub counters: CacheCounters,
    pub compactions: u64,
}

/// One method's live service and its place in the op sequence.
struct Lane<'a> {
    server: Server<'a>,
    schedule: Schedule<'a>,
    mirror: Option<CompactionMirror>,
    next_pass: usize,
    run: MethodRun,
}

impl Lane<'_> {
    /// One turn: re-warm, then timed passes until the slice is spent.
    fn turn(&mut self, spec: &Spec, inputs: &Inputs, oracle: &Oracle) {
        let slice = Instant::now();
        // Static passes are idempotent, so replaying the next pass's waves
        // changes nothing. A churn period starts cold by design (the burst
        // before it emptied the caches) and gets no extra reads.
        if spec.churn.is_none() {
            let opening = self.schedule.pass(self.next_pass);
            for wave in opening.waves.iter().cycle() {
                let one = Pass {
                    waves: vec![wave.clone()],
                    burst: None,
                };
                run_pass(
                    &mut self.server,
                    inputs,
                    oracle,
                    one,
                    0,
                    &mut self.run.tally,
                );
                if slice.elapsed() >= REWARM {
                    break;
                }
            }
        }
        loop {
            self.pass(inputs, oracle, true);
            if slice.elapsed() >= SLICE {
                break;
            }
        }
    }

    fn pass(&mut self, inputs: &Inputs, oracle: &Oracle, timed: bool) {
        let p = self.next_pass;
        self.next_pass += 1;
        let pass = self.schedule.pass(p);
        if let (Some(mirror), Some(burst)) = (self.mirror.as_mut(), &pass.burst) {
            let before = mirror.compactions;
            mirror.apply(burst, inputs.dataset.len() + p * burst.inserts.len());
            if timed {
                self.run.compactions += mirror.compactions - before;
            }
        }
        let outcome = run_pass(
            &mut self.server,
            inputs,
            oracle,
            pass,
            p,
            &mut self.run.tally,
        );
        if !timed {
            return;
        }
        if self.run.pass_qps.is_empty() {
            self.run.fp_ratio = counted_false_positive_ratio(outcome.fp_counts.iter().copied());
        }
        self.run
            .pass_qps
            .push(outcome.correct_reads as f64 / outcome.wall_s);
        self.run.wave_ms.extend(outcome.wave_ms);
    }
}

/// Sets `kind` up [`SETUP_REPS`] times from scratch and keeps the last
/// instance. Returns it with the set-up walls and the index size.
fn set_up(kind: MethodKind, spec: &Spec, dataset: &Dataset) -> (Backend, Vec<f64>, usize) {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut sizes = Vec::with_capacity(SETUP_REPS);
    let mut backend = None;
    for _ in 0..SETUP_REPS {
        drop(backend.take()); // the previous instance goes outside the timing
        let started = Instant::now();
        let built = Backend::build(kind, spec, dataset);
        setup_s.push(started.elapsed().as_secs_f64());
        sizes.push(built.index_bytes());
        backend = Some(built);
    }
    // Determinism guard: the same inputs must index to the same size.
    assert!(
        sizes.windows(2).all(|w| w[0] == w[1]),
        "{kind:?}: index size differs between set-ups of the same dataset: {sizes:?}"
    );
    (backend.expect("SETUP_REPS >= 1"), setup_s, sizes[0])
}

/// The untraced run: sets every method up, warms each up untimed, then runs
/// timed passes for `budget` in all.
///
/// The methods take turns in slices of [`SLICE`] rather than one long
/// window each. A shared host drifts between faster and slower states that
/// last from tenths of a second to seconds (the memory-bound methods feel
/// the other tenants' cache use most); turns spread those over all methods
/// and give each method several independent samples of them, so its median
/// over passes does not hinge on one stretch.
pub fn measure(
    spec: &Spec,
    inputs: &Inputs,
    oracle: &Oracle,
    seed: u64,
    budget: Duration,
) -> Vec<MethodRun> {
    let mut built: Vec<(Backend, Vec<f64>, usize)> = METHODS
        .iter()
        .map(|&(kind, _)| set_up(kind, spec, &inputs.dataset))
        .collect();
    let mut lanes: Vec<Lane<'_>> = built
        .iter_mut()
        .map(|(backend, setup_s, index_bytes)| {
            let started = Instant::now();
            let server = backend.server(spec, &inputs.dataset);
            let serve_s = started.elapsed().as_secs_f64();
            Lane {
                server,
                schedule: Schedule::new(spec, inputs, seed),
                mirror: spec
                    .churn
                    .map(|_| CompactionMirror::new(spec, &inputs.dataset)),
                next_pass: 0,
                run: MethodRun {
                    setup_s: setup_s.iter().map(|s| s + serve_s).collect(),
                    index_bytes: *index_bytes,
                    pass_qps: Vec::new(),
                    wave_ms: Vec::new(),
                    fp_ratio: 0.0,
                    tally: Tally::default(),
                    counters: CacheCounters::default(),
                    compactions: 0,
                },
            }
        })
        .collect();
    for lane in &mut lanes {
        // Warm-up: one pass; under churn, passes until every shard is past
        // the compaction threshold. From then on each remove purges
        // payloads, so the timed periods are all of one kind and their
        // median does not sit between two regimes.
        loop {
            lane.pass(inputs, oracle, false);
            if lane
                .mirror
                .as_ref()
                .is_none_or(CompactionMirror::every_shard_compacting)
            {
                break;
            }
        }
        lane.run.counters = lane.server.cache_counters();
    }
    // Whole rounds, so every method gets the same number of turns.
    let rounds = (budget.as_secs_f64() / (SLICE.as_secs_f64() * lanes.len() as f64)).round();
    let mut round = 0;
    while round < rounds as usize
        || lanes
            .iter()
            .any(|l| l.run.pass_qps.len() < MIN_TIMED_PASSES)
    {
        for lane in &mut lanes {
            lane.turn(spec, inputs, oracle);
        }
        round += 1;
    }
    lanes
        .into_iter()
        .map(|mut lane| {
            // Cache counters of the timed window: now minus after warm-up.
            lane.run.counters = counters_since(lane.run.counters, lane.server.cache_counters());
            lane.run
        })
        .collect()
}
