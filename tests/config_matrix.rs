//! The configuration-matrix oracle: the serving stack's one correctness
//! contract, checked once.
//!
//! Filtering may differ between methods, shards, routing tiers and cache
//! levels; answers may not. Every method × entry point × shard count ×
//! placement × routing tier × cache level × worker count × ingest script ×
//! fault/deadline schedule × dataset regime must return exactly what
//! exhaustive VF2 over the live dataset returns ([`exhaustive_answers`]) —
//! or, when a fault or deadline cuts a query short, a typed outcome whose
//! answers are a sound part of that truth.
//!
//! * [`cells`] enumerates the matrix: a seeded greedy all-pairs
//!   construction in which every pair of values of any two dimensions that
//!   a cell's entry point can express occurs at least once
//!   (`cells_cover_every_expressible_pair` asserts it).
//! * [`check`] replays one cell's script on the cell's service and on a
//!   mirror [`Dataset`], judging every read — cold, then memo-warm —
//!   against the truth of the mirror's state at that read. A truth is
//!   computed once per (dataset state, query) in a shared [`Fixture`], not
//!   per cell.
//!
//! There is one `#[test]` per method, so the matrix runs in parallel and
//! a failure names its method; the failing cell prints itself on one line
//! as a `Cell { .. }` literal that `check(&Cell { .. })` reruns.

use sqbench_generator::{label_clustered, GraphGen, GraphGenConfig, QueryGen, RealDataset};
use sqbench_graph::{Dataset, Graph, GraphId};
use sqbench_harness::service::{
    partition_dataset, silence_injected_panics, AdmissionQueue, CachePolicy, FaultPlan, FaultSpec,
    QueryOutcome, QueryService, Router, RoutingMode, ServiceOptions, ShardStrategy,
    ShardedQueryRecord, ShardedService, RETRY_ROUNDS,
};
use sqbench_index::{build_index, exhaustive_answers, MethodConfig, MethodKind};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, Once, OnceLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------- cells --

/// How a cell's reads and writes reach the method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entry {
    /// `GraphIndex::query` / `insert` / `remove` on one index.
    OneShot,
    /// `QueryService::run_batch` over one index, mutated between batches.
    Batch,
    /// `ShardedService::run_wave` plus `insert_graph` / `remove_graph`.
    Wave,
    /// Everything submitted to an `AdmissionQueue`, served by
    /// `ShardedService::drain`.
    Drain,
}

/// What a cell does to its dataset between reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Script {
    /// Two read steps, no writes.
    ReadsOnly,
    /// Removes a current answer of a query that was memo-warm just before,
    /// then inserts a twin of it, so a stale cache is visible; plus a
    /// double remove and an unknown id, both refused.
    Churn,
    /// Removes all but one in sixteen graphs (every shard crosses the
    /// compaction threshold), with a twin insert and a read at six
    /// checkpoints.
    RemovalHeavy,
}

/// The fault plan and deadline a cell serves under. Faults and deadlines
/// hit the cold pass of the first read; every later pass runs unbounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Faults {
    None,
    /// Seeded verify panics, healed within the retry budget.
    PanicRetry,
    /// Seeded verify panics on every attempt the retry budget allows a
    /// ticket's first wave, on every shard it probes: the ticket fails.
    PanicPastBudget,
    /// The first shard the first wave probes stalls well past a tight
    /// deadline.
    StalledShard,
    /// A deadline that has already passed.
    ExpiredDeadline,
}

/// The dataset regime a cell's fixture is drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Regime {
    Uniform,
    /// `label_clustered`: four label-disjoint families interleaved `i % 4`.
    LabelSkewed,
    SparseTwoLabel,
    AidsLike,
    PcmLike,
    PpiLike,
}

/// One point of the matrix. Its `Debug` form is a struct literal that
/// reruns it: `check(&Cell { .. })`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cell {
    index: usize,
    method: MethodKind,
    entry: Entry,
    shards: usize,
    strategy: ShardStrategy,
    routing: RoutingMode,
    cache: bool,
    workers: usize,
    script: Script,
    faults_and_deadline: Faults,
    dataset: Regime,
}

const METHODS: [MethodKind; 7] = [
    MethodKind::Grapes,
    MethodKind::Ggsx,
    MethodKind::CtIndex,
    MethodKind::GIndex,
    MethodKind::TreeDelta,
    MethodKind::GCode,
    MethodKind::Scan,
];
const ENTRIES: [Entry; 4] = [Entry::OneShot, Entry::Batch, Entry::Wave, Entry::Drain];
const SHARDS: [usize; 4] = [1, 2, 4, 7];
const ROUTINGS: [RoutingMode; 2] = [RoutingMode::Fanout, RoutingMode::Synopsis];
const CACHES: [bool; 2] = [false, true];
const WORKERS: [usize; 3] = [1, 2, 4];
const SCRIPTS: [Script; 3] = [Script::ReadsOnly, Script::Churn, Script::RemovalHeavy];
const FAULTS: [Faults; 5] = [
    Faults::None,
    Faults::PanicRetry,
    Faults::PanicPastBudget,
    Faults::StalledShard,
    Faults::ExpiredDeadline,
];
const REGIMES: [Regime; 6] = [
    Regime::Uniform,
    Regime::LabelSkewed,
    Regime::SparseTwoLabel,
    Regime::AidsLike,
    Regime::PcmLike,
    Regime::PpiLike,
];

/// The dimensions, in `Cell` field order; a point holds one value index per
/// dimension.
const DIMS: [&str; 10] = [
    "method", "entry", "shards", "strategy", "routing", "cache", "workers", "script", "faults",
    "dataset",
];
const DOMAIN: [usize; 10] = [
    METHODS.len(),
    ENTRIES.len(),
    SHARDS.len(),
    ShardStrategy::ALL.len(),
    ROUTINGS.len(),
    CACHES.len(),
    WORKERS.len(),
    SCRIPTS.len(),
    FAULTS.len(),
    REGIMES.len(),
];
type Point = [usize; 10];
type Partial = [Option<usize>; 10];
/// `(dim, value, dim, value)` with the first dim the smaller.
type Pair = (usize, usize, usize, usize);

/// Whether `entry` can express value `v` of dimension `dim`. One-shot
/// queries have no service around them; `QueryService` has workers and
/// caches but one shard, no router and no fault hook, only a deadline.
fn admits(entry: Entry, dim: usize, v: usize) -> bool {
    match (entry, DIMS[dim]) {
        (_, "entry") => ENTRIES[v] == entry,
        (_, "method" | "script" | "dataset") | (Entry::Wave | Entry::Drain, _) => true,
        (_, "shards" | "strategy" | "routing") | (Entry::OneShot, _) => v == 0,
        (Entry::Batch, "faults") => matches!(FAULTS[v], Faults::None | Faults::ExpiredDeadline),
        (Entry::Batch, _) => true,
    }
}

/// Some entry point can express every value `partial` fixes.
fn expressible(partial: &Partial) -> bool {
    ENTRIES
        .iter()
        .any(|&entry| (0..DIMS.len()).all(|d| partial[d].is_none_or(|v| admits(entry, d, v))))
}

fn pair(d1: usize, v1: usize, d2: usize, v2: usize) -> Pair {
    if d1 < d2 {
        (d1, v1, d2, v2)
    } else {
        (d2, v2, d1, v1)
    }
}

fn expressible_pairs() -> BTreeSet<Pair> {
    let mut pairs = BTreeSet::new();
    for d1 in 0..DIMS.len() {
        for d2 in d1 + 1..DIMS.len() {
            for v1 in 0..DOMAIN[d1] {
                for v2 in 0..DOMAIN[d2] {
                    let mut partial = [None; 10];
                    partial[d1] = Some(v1);
                    partial[d2] = Some(v2);
                    if expressible(&partial) {
                        pairs.insert((d1, v1, d2, v2));
                    }
                }
            }
        }
    }
    pairs
}

fn pairs_of(point: &Point) -> impl Iterator<Item = Pair> + '_ {
    (0..DIMS.len())
        .flat_map(move |d1| (d1 + 1..DIMS.len()).map(move |d2| (d1, point[d1], d2, point[d2])))
}

/// Combinations all-pairs would not guarantee but the matrix must hold, as
/// `(dim, value)` indices: `QueryService` (entry 1) on four workers
/// (workers 2) with the caches on (cache 1).
const REQUIRED: [&[(usize, usize)]; 1] = [&[(1, 1), (6, 2), (5, 1)]];

/// The matrix as value indices: every required combination, then greedy
/// all-pairs — each new point is the best of a few seeded candidates, each
/// grown from one uncovered pair by giving every other dimension the value
/// that covers most still-uncovered pairs. Deterministic.
fn points() -> &'static [Point] {
    static POINTS: OnceLock<Vec<Point>> = OnceLock::new();
    POINTS.get_or_init(|| {
        let mut uncovered = expressible_pairs();
        let mut rng = SplitMix(0xce11_5eed);
        let mut points: Vec<Point> = Vec::new();
        let mut seeds: Vec<Partial> = REQUIRED
            .iter()
            .map(|fixed| {
                let mut partial = [None; 10];
                for &(d, v) in *fixed {
                    partial[d] = Some(v);
                }
                partial
            })
            .collect();
        seeds.reverse();
        while !uncovered.is_empty() || !seeds.is_empty() {
            let point = match seeds.pop() {
                Some(partial) => grow(partial, &uncovered, &mut rng),
                None => (0..16)
                    .map(|_| {
                        let nth = rng.below(uncovered.len());
                        let &(d1, v1, d2, v2) = uncovered.iter().nth(nth).expect("in range");
                        let mut partial = [None; 10];
                        partial[d1] = Some(v1);
                        partial[d2] = Some(v2);
                        grow(partial, &uncovered, &mut rng)
                    })
                    .max_by_key(|p| pairs_of(p).filter(|pr| uncovered.contains(pr)).count())
                    .expect("sixteen candidates"),
            };
            for pr in pairs_of(&point) {
                uncovered.remove(&pr);
            }
            points.push(point);
        }
        points
    })
}

/// The matrix, one cell per point; a cell's seed derives from its index.
fn cells() -> impl Iterator<Item = Cell> {
    points().iter().enumerate().map(|(index, p)| Cell {
        index,
        method: METHODS[p[0]],
        entry: ENTRIES[p[1]],
        shards: SHARDS[p[2]],
        strategy: ShardStrategy::ALL[p[3]],
        routing: ROUTINGS[p[4]],
        cache: CACHES[p[5]],
        workers: WORKERS[p[6]],
        script: SCRIPTS[p[7]],
        faults_and_deadline: FAULTS[p[8]],
        dataset: REGIMES[p[9]],
    })
}

/// Fills the open dimensions of `partial` in seeded order, each with the
/// expressible value covering most uncovered pairs (seeded tie-break).
fn grow(mut partial: Partial, uncovered: &BTreeSet<Pair>, rng: &mut SplitMix) -> Point {
    let mut open: Vec<usize> = (0..DIMS.len()).filter(|&d| partial[d].is_none()).collect();
    for i in (1..open.len()).rev() {
        open.swap(i, rng.below(i + 1));
    }
    for d in open {
        let mut best = None;
        for v in 0..DOMAIN[d] {
            partial[d] = Some(v);
            if !expressible(&partial) {
                continue;
            }
            let gain = (0..DIMS.len())
                .filter_map(|e| partial[e].filter(|_| e != d).map(|w| pair(d, v, e, w)))
                .filter(|pr| uncovered.contains(pr))
                .count();
            let key = (gain, rng.next());
            if best.is_none_or(|(k, _)| key > k) {
                best = Some((key, v));
            }
        }
        partial[d] = best.map(|(_, v)| v);
    }
    partial.map(|v| v.expect("every dimension has an expressible value"))
}

impl Cell {
    /// The cell's own seed, derived from its index.
    fn seed(&self) -> u64 {
        SplitMix(self.index as u64).next()
    }

    /// Base dataset size: a removal-heavy script needs ≥ 32 removes on
    /// every shard.
    fn graphs(&self) -> usize {
        match self.script {
            Script::RemovalHeavy => 44 * self.shards,
            Script::ReadsOnly | Script::Churn => 20,
        }
    }

    fn options(&self) -> ServiceOptions {
        let cache = if self.cache {
            CachePolicy::enabled()
        } else {
            CachePolicy::disabled()
        };
        ServiceOptions::new()
            .shards(self.shards)
            .strategy(self.strategy)
            .routing(self.routing)
            .workers(self.workers)
            .cache(cache)
    }

    /// The deadline of read `read`, pass `pass` (0 cold, 1 warm).
    fn deadline(&self, read: usize, pass: usize) -> Option<Instant> {
        if read != 0 || pass != 0 {
            return None;
        }
        match self.faults_and_deadline {
            Faults::ExpiredDeadline => Some(Instant::now() - Duration::from_secs(1)),
            Faults::StalledShard => Some(Instant::now() + STALL / 3),
            _ => None,
        }
    }

    /// The fault plan armed for the cell's service: panics on seeded
    /// tickets of the first wave, or a stall of the first shard it probes.
    /// A ticket's panics are shared by the shards that probe it, so at most
    /// `RETRY_ROUNDS` of them always heal, and one initial attempt plus
    /// `RETRY_ROUNDS` retries per shard always fail.
    fn fault_plan(&self, fx: &Fixture) -> Option<Arc<FaultPlan>> {
        let seed = self.seed();
        let panic_times = match self.faults_and_deadline {
            Faults::PanicPastBudget => (1 + RETRY_ROUNDS) * self.shards as u32,
            _ => 1 + (seed >> 8) as u32 % RETRY_ROUNDS,
        };
        let plan = match self.faults_and_deadline {
            Faults::PanicRetry | Faults::PanicPastBudget => FaultPlan::seeded(
                seed,
                &FaultSpec {
                    tickets: fx.queries.len() as u64,
                    shards: self.shards as u64,
                    panic_queries: 1 + (seed % 2) as usize,
                    panic_times,
                    stalled_shards: 0,
                    stall: Duration::ZERO,
                    admission_failures: 0,
                },
            ),
            Faults::StalledShard => {
                let parts = partition_dataset(&fx.base, self.shards, self.strategy);
                let plan = Router::build(parts.iter().map(|p| &p.dataset))
                    .plan(&fx.read_order(self), self.routing);
                let first = plan.iter().position(|qs| !qs.is_empty()).unwrap_or(0);
                FaultPlan::new().stall_shard(first, STALL)
            }
            Faults::None | Faults::ExpiredDeadline => return None,
        };
        Some(Arc::new(plan))
    }
}

/// How long a stalled shard sleeps; its wave's deadline is a third of it.
const STALL: Duration = Duration::from_millis(45);

/// SplitMix64: the matrix's only randomness.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

// ------------------------------------------------------------- fixtures --

/// One write or read of a script.
#[derive(Debug)]
enum Step {
    Read,
    Insert(Graph),
    Remove(GraphId),
}

/// What every cell over one (regime, script, size) shares: the base
/// dataset, the query pool (4-, 8- and 16-edge queries extracted from it),
/// the script, and the truth of every read step.
struct Fixture {
    base: Dataset,
    queries: Vec<Graph>,
    steps: Vec<Step>,
    /// `truths[read][query]`: `exhaustive_answers` over the script's
    /// dataset state at that read.
    truths: Vec<Vec<Vec<GraphId>>>,
}

impl Regime {
    fn generate(self, graphs: usize, seed: u64) -> Dataset {
        let synthetic = |nodes, density, labels| {
            GraphGenConfig::default()
                .with_graph_count(graphs)
                .with_avg_nodes(nodes)
                .with_avg_density(density)
                .with_label_count(labels)
                .with_seed(seed)
        };
        let scaled = |real: RealDataset, nodes: f64| {
            let spec = real.spec();
            real.generate_with(
                graphs as f64 / spec.graph_count as f64,
                nodes / spec.avg_nodes,
                seed,
            )
        };
        match self {
            Regime::Uniform => GraphGen::new(synthetic(12, 0.2, 4)).generate(),
            Regime::LabelSkewed => label_clustered(&synthetic(12, 0.2, 3), 4),
            Regime::SparseTwoLabel => GraphGen::new(synthetic(14, 0.12, 2)).generate(),
            Regime::AidsLike => scaled(RealDataset::Aids, 12.0),
            Regime::PcmLike => scaled(RealDataset::Pcm, 8.0),
            Regime::PpiLike => scaled(RealDataset::Ppi, 9.0),
        }
    }

    /// `graphs` graphs of the regime within 20 % of its median weight
    /// (vertices + edges). Placement balances weight, not count, so only a
    /// size-homogeneous base gives every shard — under every strategy —
    /// enough graphs to cross the compaction threshold. Kept graphs stay
    /// interleaved `i % 4`, as `label_clustered` families are.
    fn generate_homogeneous(self, graphs: usize, seed: u64) -> Dataset {
        let pool = self.generate(16 * graphs, seed);
        let weight = |g: &Graph| g.vertex_count() + g.edge_count();
        let mut weights: Vec<usize> = pool.iter().map(|(_, g)| weight(g)).collect();
        weights.sort_unstable();
        let median = weights[weights.len() / 2];
        let lanes: Vec<Vec<&Graph>> = (0..4)
            .map(|lane| {
                pool.iter()
                    .filter(|&(id, g)| id % 4 == lane && weight(g).abs_diff(median) * 5 <= median)
                    .map(|(_, g)| g)
                    .collect()
            })
            .collect();
        let kept = (0..graphs).map(|i| lanes[i % 4][i / 4].clone()).collect();
        Dataset::from_graphs(pool.name(), kept)
    }
}

impl Fixture {
    fn build(regime: Regime, script: Script, graphs: usize) -> Fixture {
        let seed = 0x00c0_ffee + regime as u64;
        let base = match script {
            Script::RemovalHeavy => regime.generate_homogeneous(graphs, seed),
            Script::ReadsOnly | Script::Churn => regime.generate(graphs, seed),
        };
        let (mut queries, mut sources) = (Vec::new(), Vec::new());
        for (count, edges) in [(2, 4), (1, 8), (1, 16)] {
            for (q, source) in QueryGen::new(seed ^ 0x5eed)
                .generate(&base, count, edges)
                .iter()
            {
                queries.push(q.clone());
                sources.push(source);
            }
        }
        let twin = |id: GraphId| base.graph_unchecked(id).clone();
        let mut steps = vec![Step::Read];
        match script {
            Script::ReadsOnly => steps.push(Step::Read),
            Script::Churn => {
                // Query 0 is a 4-edge query, small enough for the answer
                // memo; its source graph is one of its answers.
                let (a, b) = (sources[0], sources[1]);
                let fresh = regime.generate(1, seed ^ 0xfeed).graph_unchecked(0).clone();
                steps.extend([
                    Step::Remove(a),
                    Step::Read,
                    Step::Insert(twin(a)),
                    Step::Read,
                    Step::Insert(fresh),
                    Step::Remove(a),
                    Step::Remove(graphs + 7),
                    Step::Remove(b),
                    Step::Read,
                ]);
            }
            Script::RemovalHeavy => {
                // 37 is coprime to every size used, so the stride visits
                // each id once; one graph in sixteen survives.
                let victims: Vec<GraphId> = (0..graphs)
                    .map(|i| i * 37 % graphs)
                    .filter(|id| id % 16 != 0)
                    .collect();
                for chunk in victims.chunks(victims.len().div_ceil(6)) {
                    steps.extend(chunk.iter().map(|&id| Step::Remove(id)));
                    steps.extend([Step::Insert(twin(chunk[0])), Step::Read]);
                }
            }
        }
        let mut mirror = base.clone();
        let mut truths = Vec::new();
        for step in &steps {
            match step {
                Step::Read => truths.push(
                    queries
                        .iter()
                        .map(|q| exhaustive_answers(&mirror, q))
                        .collect::<Vec<_>>(),
                ),
                Step::Insert(g) => {
                    mirror.push(g.clone());
                }
                Step::Remove(id) => {
                    mirror.remove(*id);
                }
            }
        }
        for (qi, source) in sources.iter().enumerate() {
            assert!(
                truths[0][qi].contains(source),
                "{regime:?}: query {qi} must match the graph it was extracted from"
            );
        }
        Fixture {
            base,
            queries,
            steps,
            truths,
        }
    }

    /// The query pool in the order `cell` submits it (rotated by its seed,
    /// so faults land on different queries).
    fn read_order(&self, cell: &Cell) -> Vec<&Graph> {
        (0..self.queries.len())
            .map(|pos| &self.queries[self.order_index(cell, pos)])
            .collect()
    }

    /// The pool index of the query `cell` submits at `position`.
    fn order_index(&self, cell: &Cell, position: usize) -> usize {
        (position + cell.seed() as usize % self.queries.len()) % self.queries.len()
    }
}

/// The fixture of `cell`, built once per process and shared by every cell
/// (and every test thread) over the same regime, script and size.
fn fixture(cell: &Cell) -> &'static Fixture {
    type Slot = &'static OnceLock<Fixture>;
    static FIXTURES: Mutex<BTreeMap<(Regime, Script, usize), Slot>> = Mutex::new(BTreeMap::new());
    let key = (cell.dataset, cell.script, cell.graphs());
    let slot: Slot = *FIXTURES
        .lock()
        .unwrap()
        .entry(key)
        .or_insert_with(|| Box::leak(Box::default()));
    slot.get_or_init(|| Fixture::build(key.0, key.1, key.2))
}

// ---------------------------------------------------------------- check --

/// Replays `cell`'s script on its entry point and on a mirror dataset and
/// judges every read against the fixture's truth.
fn check(cell: &Cell) {
    let fx = fixture(cell);
    match cell.entry {
        Entry::OneShot | Entry::Batch => check_on_index(cell, fx),
        Entry::Wave | Entry::Drain => check_on_service(cell, fx),
    }
}

/// Judges one pass of one read step; `served[pos]` is the outcome,
/// answers and candidate count of the query submitted at `pos`. The
/// outcome contract: `Complete` answers are the truth, `Degraded` ones a
/// sorted part of it, `TimedOut` / `Failed` answer nothing, and nothing is
/// `Shed` without an admission door. Faults and deadlines hit the first
/// cold pass; every other pass must complete unless panics outlast the
/// retry budget.
fn judge_pass<'a>(
    cell: &Cell,
    fx: &Fixture,
    (read, pass): (usize, usize),
    served: impl IntoIterator<Item = (QueryOutcome, &'a [GraphId], usize)>,
) {
    for (pos, (outcome, answers, candidates)) in served.into_iter().enumerate() {
        let at = format!("read {read} pass {pass} query {pos}");
        let truth = &fx.truths[read][fx.order_index(cell, pos)];
        match (cell.faults_and_deadline, read == 0 && pass == 0) {
            (Faults::ExpiredDeadline, true) => {
                assert_eq!(outcome, QueryOutcome::TimedOut, "{at}: expired deadline")
            }
            (Faults::PanicPastBudget, _) => {
                assert_ne!(outcome, QueryOutcome::TimedOut, "{at}: no deadline was set")
            }
            (Faults::StalledShard, true) => {}
            _ => assert_eq!(
                outcome,
                QueryOutcome::Complete,
                "{at}: nothing cut it short"
            ),
        }
        match outcome {
            QueryOutcome::Complete => assert_eq!(answers, truth, "{at}: complete answers"),
            QueryOutcome::Degraded { shards_missing } => {
                assert!(shards_missing >= 1, "{at}");
                assert!(answers.windows(2).all(|w| w[0] < w[1]), "{at}: unsorted");
                assert!(
                    answers.iter().all(|id| truth.contains(id)),
                    "{at}: degraded answers {answers:?} ⊄ truth {truth:?}"
                );
            }
            QueryOutcome::TimedOut | QueryOutcome::Failed => {
                assert!(
                    answers.is_empty(),
                    "{at}: {} leaked answers",
                    outcome.name()
                )
            }
            QueryOutcome::Shed => panic!("{at}: a read was shed without an admission door"),
        }
        if outcome.is_executed() {
            assert!(
                candidates >= answers.len(),
                "{at}: fewer candidates than answers"
            );
        }
    }
}

/// One-shot and `QueryService` cells: one index over the mirror, mutated
/// in lockstep with it (a `QueryService` borrows both, so one lives per
/// read step).
fn check_on_index(cell: &Cell, fx: &Fixture) {
    let mut mirror = fx.base.clone();
    let mut index = build_index(cell.method, &MethodConfig::fast(), &mirror);
    let order = fx.read_order(cell);
    let (mut read, mut answer_hits) = (0, 0);
    for (step_no, step) in fx.steps.iter().enumerate() {
        match step {
            Step::Insert(g) => {
                let id = index.insert(g);
                assert_eq!(id, mirror.push(g.clone()), "step {step_no}: insert id");
            }
            Step::Remove(id) => {
                let removed = index.remove(*id);
                assert_eq!(removed, mirror.remove(*id), "step {step_no}: remove {id}");
            }
            Step::Read if cell.entry == Entry::OneShot => {
                for pass in 0..2 {
                    let got: Vec<_> = order.iter().map(|q| index.query(&mirror, q)).collect();
                    for (pos, got) in got.iter().enumerate() {
                        // No false dismissal at the filter either.
                        let truth = &fx.truths[read][fx.order_index(cell, pos)];
                        assert!(got.candidates.windows(2).all(|w| w[0] < w[1]));
                        assert!(
                            truth.iter().all(|id| got.candidates.contains(id)),
                            "read {read} pass {pass} query {pos}: filtering dropped an answer"
                        );
                    }
                    let served = got
                        .iter()
                        .map(|g| (QueryOutcome::Complete, &g.answers[..], g.candidates.len()));
                    judge_pass(cell, fx, (read, pass), served);
                }
                read += 1;
            }
            Step::Read => {
                let mut service = QueryService::new(&*index, &mirror, cell.options());
                for pass in 0..2 {
                    let report = service.run_batch(&order, cell.deadline(read, pass));
                    // The pool clamps to the batch; memo hits leave the pool
                    // a smaller batch, and the first cold pass has none.
                    assert!(report.workers >= 1 && report.workers <= cell.workers);
                    if !cell.cache || (read, pass) == (0, 0) {
                        assert_eq!(report.workers, cell.workers.min(order.len()));
                    }
                    let served = report.records.iter().zip(&report.outcomes).map(|(r, &o)| {
                        assert_eq!(r.is_some(), o == QueryOutcome::Complete);
                        r.as_ref()
                            .map_or((o, &[][..], 0), |r| (o, &r.answers[..], r.candidate_count))
                    });
                    judge_pass(cell, fx, (read, pass), served);
                }
                answer_hits += service.cache_counters().answer_hits;
                read += 1;
            }
        }
    }
    if cell.cache {
        assert!(answer_hits > 0, "repeated reads never hit the answer memo");
    }
}

/// Wave and drain cells: a `ShardedService` over the base dataset; a drain
/// cell queues every write and read and serves each read pass with one
/// `drain`, so writes interleave with reads in ticket order.
fn check_on_service(cell: &Cell, fx: &Fixture) {
    let faults = cell.fault_plan(fx);
    let mut options = cell.options();
    if let Some(plan) = &faults {
        options = options.faults(Arc::clone(plan));
    }
    let mut service = ShardedService::new(cell.method, &MethodConfig::fast(), &fx.base, options);
    assert_eq!(service.shard_count(), cell.shards);
    assert_eq!(service.shard_sizes().iter().sum::<usize>(), fx.base.len());
    assert_eq!(
        (service.strategy(), service.routing()),
        (cell.strategy, cell.routing)
    );
    let queue = AdmissionQueue::new(ServiceOptions::new().queue_capacity(1024));
    let order = fx.read_order(cell);
    let mut mirror = fx.base.clone();
    // Drain cells: the writes queued since the last drain — all of them,
    // the inserts, and the removes the mirror accepted — and every ticket.
    let (mut writes, mut inserts, mut removes, mut tickets) = (0, 0, 0, Vec::new());
    let (mut read, mut mutated, mut failed) = (0, false, 0);
    for (step_no, step) in fx.steps.iter().enumerate() {
        match step {
            Step::Insert(g) => {
                let want = mirror.push(g.clone());
                if cell.entry == Entry::Drain {
                    queue.submit_insert(g.clone()).expect("queue open");
                    (writes, inserts) = (writes + 1, inserts + 1);
                } else {
                    assert_eq!(service.insert_graph(g.clone()), want, "step {step_no}");
                }
                mutated = true;
            }
            Step::Remove(id) => {
                let want = mirror.remove(*id);
                if cell.entry == Entry::Drain {
                    queue.submit_remove(*id).expect("queue open");
                    (writes, removes) = (writes + 1, removes + usize::from(want));
                } else {
                    assert_eq!(
                        service.remove_graph(*id),
                        want,
                        "step {step_no}: remove {id}"
                    );
                }
                mutated = true;
            }
            Step::Read => {
                for pass in 0..2 {
                    let deadline = cell.deadline(read, pass);
                    let report = if cell.entry == Entry::Drain {
                        let expired = cell.faults_and_deadline == Faults::ExpiredDeadline;
                        for q in &order {
                            let own = deadline.filter(|_| expired);
                            queue.submit((*q).clone(), own).expect("queue open");
                        }
                        let report = service.drain(&queue, deadline.filter(|_| !expired));
                        assert_eq!(report.records.len(), writes + order.len());
                        assert_eq!(report.inserts_applied, inserts);
                        assert_eq!(report.removes_applied, removes);
                        for write in &report.records[..writes] {
                            assert_eq!(write.outcome, QueryOutcome::Complete);
                            assert!(write.answers.is_empty());
                        }
                        tickets.extend(report.records.iter().map(|r| r.ticket));
                        (writes, inserts, removes) = (0, 0, 0);
                        report
                    } else {
                        let report = service.run_wave(&order, deadline);
                        assert_eq!(report.records.len(), order.len());
                        report
                    };
                    let reads = &report.records[report.records.len() - order.len()..];
                    assert_eq!(report.shards, cell.shards);
                    if cell.faults_and_deadline == Faults::None {
                        // Stage accounting covers every (query, shard) probe.
                        let served: u64 = report.per_shard.iter().map(|t| t.queries).sum();
                        let probed: usize = reads.iter().map(|r| r.shards_probed).sum();
                        assert_eq!(served as usize, probed, "read {read} pass {pass}");
                    }
                    failed += reads
                        .iter()
                        .filter(|r| r.outcome == QueryOutcome::Failed)
                        .count();
                    let served = reads
                        .iter()
                        .map(|r| (r.outcome, &r.answers[..], r.candidate_count));
                    judge_pass(cell, fx, (read, pass), served);
                    check_routing(cell, &service, &order, reads, !mutated, read, pass);
                }
                read += 1;
            }
        }
    }
    match (&faults, cell.faults_and_deadline) {
        (Some(plan), Faults::StalledShard) => assert_eq!(plan.injected_stalls(), 1),
        (Some(plan), _) => assert!(plan.injected_panics() >= 1, "the panic plan never fired"),
        (None, _) => {}
    }
    match cell.faults_and_deadline {
        Faults::PanicPastBudget => assert!(failed >= 1, "no ticket outlasted the retry budget"),
        _ => assert_eq!(failed, 0, "a query failed with no panic past the budget"),
    }
    if cell.cache {
        assert!(
            service.cache_counters().answer_hits > 0,
            "repeated reads never hit the answer memo"
        );
    }
    if cell.entry == Entry::Drain {
        let dense: Vec<u64> = (0..tickets.len() as u64).collect();
        assert_eq!(tickets, dense, "drained tickets must be dense and in order");
    }
    if cell.strategy == ShardStrategy::RoundRobin && mutated {
        assert_router_equals_rebuild(&service, &mirror);
    }
}

/// Per read record: probes partition the shards, a record that was not
/// memo-served probed exactly what the router plans, and on unmutated
/// label-skewed round-robin data over 2 or 4 shards each query's family
/// lives on one shard, so routing admits exactly one.
fn check_routing(
    cell: &Cell,
    service: &ShardedService,
    order: &[&Graph],
    reads: &[ShardedQueryRecord],
    unmutated: bool,
    read: usize,
    pass: usize,
) {
    let router = service.router();
    let admitted = |mode| {
        let plan = router.plan(order, mode);
        (0..order.len())
            .map(|qi| plan.iter().filter(|qs| qs.contains(&qi)).count())
            .collect::<Vec<_>>()
    };
    let (bounds, planned) = (admitted(RoutingMode::Synopsis), admitted(cell.routing));
    let skewed = cell.dataset == Regime::LabelSkewed
        && cell.strategy == ShardStrategy::RoundRobin
        && matches!(cell.shards, 2 | 4)
        && unmutated;
    for (pos, record) in reads.iter().enumerate() {
        let at = format!("read {read} pass {pass} query {pos}");
        assert_eq!(
            record.shards_probed + record.shards_skipped,
            cell.shards,
            "{at}"
        );
        if !(cell.cache && record.shards_probed == 0) {
            assert_eq!(record.shards_probed, planned[pos], "{at}: probes ≠ plan");
        }
        if skewed {
            assert_eq!(bounds[pos], 1, "{at}: a family query leaked past its shard");
        }
    }
}

/// Round-robin keeps global id `i` on shard `i % shards`, offline and
/// online alike: the incrementally maintained router must equal one built
/// from scratch over the mirror's live graphs laid out that way.
fn assert_router_equals_rebuild(service: &ShardedService, mirror: &Dataset) {
    let shards = service.shard_count();
    let live: Vec<Dataset> = (0..shards)
        .map(|s| {
            let members = mirror
                .iter_live()
                .filter(|(id, _)| id % shards == s)
                .map(|(_, g)| g.clone())
                .collect();
            Dataset::from_graphs("live", members)
        })
        .collect();
    let rebuilt = Router::build(live.iter());
    for s in 0..shards {
        let router = service.router();
        assert_eq!(
            router.synopsis(s),
            rebuilt.synopsis(s),
            "shard {s} synopsis"
        );
    }
}

// ---------------------------------------------------------------- tests --

fn check_method(method: MethodKind) {
    static QUIET: Once = Once::new();
    QUIET.call_once(silence_injected_panics);
    for cell in cells().filter(|c| c.method == method) {
        if let Err(panic) = std::panic::catch_unwind(|| check(&cell)) {
            eprintln!("failing cell: {cell:?}");
            std::panic::resume_unwind(panic);
        }
    }
}

macro_rules! method_tests {
    ($($name:ident: $method:ident),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                check_method(MethodKind::$method);
            }
        )*
    };
}

method_tests! {
    grapes_cells: Grapes,
    ggsx_cells: Ggsx,
    ctindex_cells: CtIndex,
    gindex_cells: GIndex,
    treedelta_cells: TreeDelta,
    gcode_cells: GCode,
    scan_cells: Scan,
}

/// Coverage is asserted, not claimed — over the cell list and fixtures
/// alone, without serving anything.
#[test]
fn cells_cover_every_expressible_pair() {
    let (points, cells): (&[Point], Vec<Cell>) = (points(), cells().collect());
    let covered: BTreeSet<Pair> = points.iter().flat_map(pairs_of).collect();
    for &(d1, v1, d2, v2) in &expressible_pairs() {
        assert!(
            covered.contains(&(d1, v1, d2, v2)),
            "no cell has {} #{v1} with {} #{v2}",
            DIMS[d1],
            DIMS[d2]
        );
    }
    // Every cell is expressible by its own entry point, and every method
    // meets every value of every dimension.
    for (cell, p) in cells.iter().zip(points) {
        assert!(
            (0..DIMS.len()).all(|d| admits(cell.entry, d, p[d])),
            "{cell:?}"
        );
    }
    for m in 0..METHODS.len() {
        for d in 1..DIMS.len() {
            for v in 0..DOMAIN[d] {
                assert!(points.iter().any(|p| p[0] == m && p[d] == v));
            }
        }
    }
    // The pairs no hand-written matrix enumerated, by name.
    let has = |want: &dyn Fn(&Cell) -> bool| cells.iter().any(want);
    let faulted = |c: &Cell| c.faults_and_deadline != Faults::None;
    let ingest = |c: &Cell| c.script != Script::ReadsOnly;
    let placed = |c: &Cell| c.strategy != ShardStrategy::RoundRobin;
    assert!(has(&|c| faulted(c) && c.cache));
    assert!(has(&|c| faulted(c) && c.routing != RoutingMode::Fanout));
    assert!(has(&|c| faulted(c) && ingest(c)));
    assert!(has(&|c| c.cache && placed(c)));
    assert!(has(
        &|c| ingest(c) && c.strategy == ShardStrategy::LabelAware
    ));
    assert!(has(
        &|c| ingest(c) && c.strategy == ShardStrategy::SizeBalanced
    ));
    assert!(has(&|c| ingest(c) && c.shards == 7));
    assert!(has(&|c| c.entry == Entry::Batch
        && c.workers == 4
        && c.cache));
    // A removal-heavy script crosses the compaction threshold (≥ 32 dead
    // ids and ≥ 1/8 of the universe, inserts included) on every shard.
    for cell in cells.iter().filter(|c| c.script == Script::RemovalHeavy) {
        let fx = fixture(cell);
        let removed: BTreeSet<GraphId> = fx
            .steps
            .iter()
            .filter_map(|s| match s {
                Step::Remove(id) => Some(*id),
                _ => None,
            })
            .collect();
        let inserts = fx.steps.len() - removed.len() - fx.truths.len();
        for part in partition_dataset(&fx.base, cell.shards, cell.strategy) {
            let dead = part
                .to_global
                .iter()
                .filter(|id| removed.contains(id))
                .count();
            assert!(
                dead >= 32 && dead * 8 >= part.to_global.len() + inserts,
                "{cell:?}: a shard of {} graphs loses only {dead}",
                part.to_global.len()
            );
        }
    }
    eprintln!("{} cells cover {} pairs", cells.len(), covered.len());
}
