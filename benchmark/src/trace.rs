//! The traced run: per-layer numbers measured from outside the program.
//!
//! Nothing inside the library crates records spans yet, so every layer is
//! timed around a call into a public function. For each method the
//! benchmark walks a fixed sample of reads through the pipeline *by hand* —
//! memo key + probe → `Router::plan` → per-shard `filter_into[_cached]` on
//! its own `partition_dataset` + `build_index` parts → `verify_set` →
//! id-map merge — then sends the same sample through the real service under
//! one `service.wave` span per wave. What the service's wall holds beyond
//! the replayed layer work is `service.overhead`.

use crate::drive::{counters_since, Backend, Server};
use crate::report::median;
use crate::workloads::{method_config, Burst, Inputs, Oracle, Spec, SERVICE_THREADS};
use sqbench_features::{cycles::enumerate_cycles, paths::query_paths, trees::query_trees};
use sqbench_graph::{Graph, GraphId};
use sqbench_harness::metrics::CacheCounters;
use sqbench_harness::service::{
    answer_memo_key, partition_dataset, AdmissionQueue, AnswerEntry, AnswerMemo, FeatureCache,
    Router, RoutingMode, ServiceOptions, ShardPart, ShardedService,
};
use sqbench_index::{build_index, CandidateSet, FilterCacheCtx, GraphIndex, MethodKind};
use sqbench_iso::{MatchState, TunedMatcher, Vf2Matcher};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Reads in the replayed sample (under churn: the reads before the first
/// burst).
pub const SAMPLE_OPS: usize = 512;
/// Write bursts timed per method for `sharded.ingest_burst_ms`, and the
/// inserts (and as many removes) in each. Small, because one remove costs a
/// pass over the whole shard.
pub const PROBE_BURSTS: usize = 2;
pub const PROBE_BURST_WRITES: usize = 2;

pub struct Span {
    pub name: &'static str,
    pub method: &'static str,
    /// The op (read) number within the sample; waves carry their first op's.
    pub trace_id: u32,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span log, written out when the benchmark ends.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn open(
        &mut self,
        name: &'static str,
        method: &'static str,
        trace_id: u32,
        parent: Option<u32>,
    ) -> u32 {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            method,
            trace_id,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() as u32 - 1
    }

    /// Ends the span and returns its duration in seconds.
    pub fn close(&mut self, id: u32) -> f64 {
        let span = &mut self.spans[id as usize];
        span.end_ns = self.origin.elapsed().as_nanos() as u64;
        (span.end_ns - span.start_ns) as f64 / 1e9
    }

    /// Share of the root spans' time that no child span covers — the
    /// benchmark's own glue between layer calls. Also checks that every
    /// child lies inside its parent.
    pub fn glue_share(&self, root: &str) -> f64 {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent as usize];
                assert!(
                    p.start_ns <= span.start_ns && span.end_ns <= p.end_ns,
                    "span {} escapes its parent {}",
                    span.name,
                    p.name
                );
                covered[parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let (mut total, mut own) = (0u64, 0u64);
        for (span, &covered) in self.spans.iter().zip(&covered) {
            if span.name == root {
                total += span.end_ns - span.start_ns;
                own += (span.end_ns - span.start_ns).saturating_sub(covered);
            }
        }
        own as f64 / total.max(1) as f64
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"method\":\"{}\",\"trace_id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.method, s.trace_id, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

/// The benchmark's own copy of the serving pipeline's parts.
struct Hand {
    parts: Vec<ShardPart>,
    indexes: Vec<Box<dyn GraphIndex>>,
    router: Router,
    features: Vec<FeatureCache>,
    memo: AnswerMemo,
    arena: CandidateSet,
    partition_s: f64,
    build_s: f64,
}

/// Layer totals of one hand-replayed pass, in seconds.
#[derive(Default, Clone)]
struct Replay {
    ops: usize,
    failed: u64,
    canonical_s: f64,
    probe_s: f64,
    plan_s: f64,
    filter_s: f64,
    verify_s: f64,
    merge_s: f64,
    candidates: u64,
}

impl Replay {
    /// The replayed layer work. The process runs on one CPU, so the
    /// service's threads take turns on it and their work adds up.
    fn work_s(&self) -> f64 {
        self.canonical_s + self.probe_s + self.plan_s + self.filter_s + self.verify_s + self.merge_s
    }
}

impl Hand {
    fn build(kind: MethodKind, spec: &Spec, inputs: &Inputs) -> Hand {
        let started = Instant::now();
        let parts = partition_dataset(&inputs.dataset, spec.shards(), spec.strategy());
        let partition_s = started.elapsed().as_secs_f64();
        let config = method_config();
        let started = Instant::now();
        let indexes: Vec<Box<dyn GraphIndex>> = parts
            .iter()
            .map(|part| build_index(kind, &config, &part.dataset))
            .collect();
        let build_s = started.elapsed().as_secs_f64();
        let policy = spec.cache_policy();
        Hand {
            router: Router::build(parts.iter().map(|p| &p.dataset)),
            features: parts
                .iter()
                .map(|_| FeatureCache::new(policy.feature_capacity.max(1)))
                .collect(),
            memo: AnswerMemo::new(policy.answer_capacity.max(1)),
            arena: CandidateSet::empty(0),
            parts,
            indexes,
            partition_s,
            build_s,
        }
    }

    fn size_bytes(&self) -> usize {
        self.indexes.iter().map(|i| i.size_bytes()).sum()
    }

    fn invalidate_caches(&self) {
        self.memo.invalidate_all();
        for cache in &self.features {
            cache.invalidate_all();
        }
    }

    /// Walks the sample through the pipeline one read at a time. Memo
    /// inserts wait for the end of the wave, because the service probes the
    /// memo at admission: duplicates inside one wave all miss.
    fn replay(
        &mut self,
        rec: &mut Recorder,
        method: &'static str,
        spec: &Spec,
        inputs: &Inputs,
        oracle: &Oracle,
        waves: &[Vec<u32>],
    ) -> Replay {
        let mut out = Replay::default();
        for wave in waves {
            let mut memoize: Vec<(String, AnswerEntry)> = Vec::new();
            for &q in wave {
                let op = out.ops as u32;
                out.ops += 1;
                let query = &inputs.queries[q as usize];
                let root = rec.open("replay.op", method, op, None);
                let mut key = None;
                let mut answers: Option<Vec<GraphId>> = None;
                if spec.cache {
                    let span = rec.open("features.canonical", method, op, Some(root));
                    key = answer_memo_key(query);
                    out.canonical_s += rec.close(span);
                    let span = rec.open("cache.memo_probe", method, op, Some(root));
                    let hit = key.as_deref().and_then(|k| self.memo.lookup(k));
                    out.probe_s += rec.close(span);
                    answers = hit.map(|entry| entry.answers.clone());
                }
                if answers.is_none() {
                    let shards: Vec<usize> = if spec.routing() == RoutingMode::Fanout {
                        (0..self.parts.len()).collect()
                    } else {
                        let span = rec.open("synopsis.plan", method, op, Some(root));
                        let plan = self.router.plan(&[query], spec.routing());
                        out.plan_s += rec.close(span);
                        (0..plan.len()).filter(|&s| !plan[s].is_empty()).collect()
                    };
                    let mut merged = Vec::new();
                    let mut candidates = 0;
                    for s in shards {
                        let span = rec.open("index.filter", method, op, Some(root));
                        if spec.cache {
                            let mut ctx = FilterCacheCtx::new(&self.features[s]);
                            self.indexes[s].filter_into_cached(query, &mut self.arena, &mut ctx);
                        } else {
                            self.indexes[s].filter_into(query, &mut self.arena);
                        }
                        let filter_s = rec.close(span);
                        candidates += self.arena.len();
                        let span = rec.open("index.verify", method, op, Some(root));
                        let local =
                            self.indexes[s].verify_set(&self.parts[s].dataset, query, &self.arena);
                        let verify_s = rec.close(span);
                        let span = rec.open("service.merge", method, op, Some(root));
                        merged.extend(local.iter().map(|&id| self.parts[s].to_global[id]));
                        out.merge_s += rec.close(span);
                        out.filter_s += filter_s;
                        out.verify_s += verify_s;
                    }
                    let span = rec.open("service.merge", method, op, Some(root));
                    merged.sort_unstable();
                    out.merge_s += rec.close(span);
                    out.candidates += candidates as u64;
                    if let Some(key) = key {
                        memoize.push((
                            key,
                            AnswerEntry {
                                answers: merged.clone(),
                                candidate_count: candidates,
                                candidates_pruned: inputs.dataset.len() - candidates,
                            },
                        ));
                    }
                    answers = Some(merged);
                }
                rec.close(root);
                if answers != Some(oracle.expected(q, 0)) {
                    out.failed += 1;
                }
            }
            for (key, entry) in memoize {
                self.memo.insert(key, entry);
            }
        }
        out
    }

    /// Times `insert` and `remove` on the hand-held indexes: a few graphs
    /// of the dataset go in again as new ids and come straight back out.
    /// Returns the mean microseconds per insert and per remove.
    fn time_writes(&mut self, inputs: &Inputs) -> (f64, f64) {
        let graphs: Vec<&Graph> = (0..PROBE_BURSTS * PROBE_BURST_WRITES)
            .map(|i| inputs.dataset.graph_unchecked(i % inputs.dataset.len()))
            .collect();
        let (mut insert_s, mut remove_s) = (0.0, 0.0);
        let mut added = Vec::new();
        for (i, graph) in graphs.iter().enumerate() {
            let s = i % self.parts.len();
            let started = Instant::now();
            let id = self.indexes[s].insert(graph);
            insert_s += started.elapsed().as_secs_f64();
            added.push((s, id));
        }
        for &(s, id) in &added {
            let started = Instant::now();
            black_box(self.indexes[s].remove(id));
            remove_s += started.elapsed().as_secs_f64();
        }
        let n = graphs.len() as f64;
        (insert_s * 1e6 / n, remove_s * 1e6 / n)
    }
}

/// Per-layer numbers of one method.
pub struct MethodTrace {
    pub build_s: f64,
    pub partition_s: f64,
    pub size_bytes: usize,
    /// Per read of the sample, microseconds (memo hits count as zero work).
    pub filter_us: f64,
    pub verify_us: f64,
    pub candidates: f64,
    pub insert_us: f64,
    pub remove_us: f64,
    pub ingest_burst_ms: f64,
    pub overhead_share: f64,
    /// Filter's share of the replayed filter + verify time.
    pub filter_share: f64,
    pub wave_ms: Vec<f64>,
    /// Recorded minus unrecorded service pass wall, as a share.
    pub trace_overhead_share: f64,
    pub counters: CacheCounters,
    pub reads: u64,
    pub shards_probed: u64,
    pub attempted: u64,
    pub failed: u64,
    pub sample_ops: usize,
}

fn median_of(passes: &[Replay], field: impl Fn(&Replay) -> f64) -> f64 {
    median(&passes.iter().map(field).collect::<Vec<_>>())
}

/// A burst the traced run can apply to any sharded service: a few dataset
/// graphs go in again under new ids, and as many of the oldest ids leave.
fn probe_burst(inputs: &Inputs, k: usize) -> Burst {
    let ids = k * PROBE_BURST_WRITES..(k + 1) * PROBE_BURST_WRITES;
    Burst {
        inserts: ids
            .clone()
            .map(|i| inputs.dataset.graph_unchecked(i).clone())
            .collect(),
        removes: ids.collect(),
    }
}

/// Hand-replays the sample, sends it through the real service, and times
/// the write path; each half gets half of `budget`.
#[allow(clippy::too_many_arguments)] // one call site; the arguments are the run's fixed inputs
pub fn trace_method(
    kind: MethodKind,
    method: &'static str,
    spec: &Spec,
    inputs: &Inputs,
    oracle: &Oracle,
    waves: &[Vec<u32>],
    budget: Duration,
    rec: &mut Recorder,
) -> MethodTrace {
    let mut hand = Hand::build(kind, spec, inputs);
    let size_bytes = hand.size_bytes();
    let mut failed = 0;
    let mut attempted = 0;

    // Hand replay. The first pass is a warm-up (arenas, Tree+Δ's learning);
    // only the last pass's spans stay in the log.
    let base = rec.spans.len();
    let mut passes: Vec<Replay> = Vec::new();
    let mut warm: Option<Replay> = None;
    let started = Instant::now();
    while warm.is_none() || passes.is_empty() || started.elapsed() < budget / 2 {
        rec.spans.truncate(base);
        if spec.cache {
            hand.invalidate_caches();
        }
        let pass = hand.replay(rec, method, spec, inputs, oracle, waves);
        attempted += pass.ops as u64;
        failed += pass.failed;
        match warm {
            None => warm = Some(pass),
            Some(_) => passes.push(pass),
        }
    }
    // Determinism guard: without query-time learning, the same reads on the
    // same index must leave the same candidate counts.
    if kind != MethodKind::TreeDelta {
        let first = warm.as_ref().expect("warm-up ran").candidates;
        assert!(
            passes.iter().all(|p| p.candidates == first),
            "{method}: candidate counts differ between replays of the same sample"
        );
    }
    let ops = passes[0].ops;
    let per_op_us = |field: fn(&Replay) -> f64| median_of(&passes, field) * 1e6 / ops as f64;
    let work_s = median_of(&passes, Replay::work_s);
    let filter_s = median_of(&passes, |p| p.filter_s);
    let verify_s = median_of(&passes, |p| p.verify_s);

    // The same sample through the real service, spans on and off in turn.
    let mut backend = spec
        .sharded
        .map(|_| Backend::build(kind, spec, &inputs.dataset));
    let mut server = match &mut backend {
        Some(backend) => backend.server(spec, &inputs.dataset),
        None => Server::batch(&*hand.indexes[0], &hand.parts[0].dataset, spec),
    };
    let mut wave_ms = Vec::new();
    let (mut walls_on, mut walls_off) = (Vec::new(), Vec::new());
    let (mut reads, mut shards_probed) = (0u64, 0u64);
    let mut counters_before = CacheCounters::default();
    let started = Instant::now();
    let mut pass_no = 0;
    while pass_no < 3 || started.elapsed() < budget / 2 {
        if pass_no == 1 {
            counters_before = server.cache_counters();
        }
        if spec.cache {
            server.invalidate_caches();
        }
        let record = pass_no % 2 == 1;
        let mut wall_s = 0.0;
        let mut op = 0u32;
        for wave in waves {
            let queries: Vec<&Graph> = wave.iter().map(|&q| &inputs.queries[q as usize]).collect();
            let span = record.then(|| rec.open("service.wave", method, op, None));
            let served = server.wave(&queries);
            if let Some(span) = span {
                rec.close(span);
            }
            op += wave.len() as u32;
            wall_s += served.wall_s;
            for (&q, read) in wave.iter().zip(&served.reads) {
                attempted += 1;
                if read.answers.as_ref() != Some(&oracle.expected(q, 0)) {
                    failed += 1;
                }
                if pass_no > 0 {
                    reads += 1;
                    shards_probed += read.shards_probed as u64;
                }
            }
            if pass_no > 0 {
                wave_ms.push(served.wall_s * 1e3);
            }
        }
        match (pass_no, record) {
            (0, _) => {}
            (_, true) => walls_on.push(wall_s),
            (_, false) => walls_off.push(wall_s),
        }
        pass_no += 1;
    }
    let counters = counters_since(counters_before, server.cache_counters());
    let all_walls: Vec<f64> = walls_on.iter().chain(&walls_off).copied().collect();
    let service_wall_s = median(&all_walls);

    // The write path through the service. The batch path has none, so its
    // workloads time a one-shard sharded service over the same dataset.
    let mut burst_ms = Vec::new();
    let mut time_bursts = |server: &mut Server<'_>| {
        for k in 0..PROBE_BURSTS {
            let (wall_s, refused) = server.burst(probe_burst(inputs, k));
            burst_ms.push(wall_s * 1e3);
            attempted += 2 * PROBE_BURST_WRITES as u64;
            failed += refused;
        }
    };
    if spec.sharded.is_some() {
        time_bursts(&mut server);
        drop(server);
    } else {
        drop(server);
        let opts = ServiceOptions::new()
            .workers(SERVICE_THREADS)
            .queue_capacity(64);
        let mut service =
            ShardedService::new(kind, &method_config(), &inputs.dataset, opts.clone());
        let queue = AdmissionQueue::new(opts);
        time_bursts(&mut Server::Sharded(&mut service, &queue));
    }
    let (insert_us, remove_us) = hand.time_writes(inputs);

    MethodTrace {
        build_s: hand.build_s,
        partition_s: hand.partition_s,
        size_bytes,
        filter_us: per_op_us(|p| p.filter_s),
        verify_us: per_op_us(|p| p.verify_s),
        candidates: median_of(&passes, |p| p.candidates as f64) / ops as f64,
        insert_us,
        remove_us,
        ingest_burst_ms: median(&burst_ms),
        overhead_share: (service_wall_s - work_s) / service_wall_s,
        filter_share: filter_s / (filter_s + verify_s),
        wave_ms,
        trace_overhead_share: (median(&walls_on) - median(&walls_off)) / median(&walls_off),
        counters,
        reads,
        shards_probed,
        attempted,
        failed,
        sample_ops: ops,
    }
}

/// A named per-layer value and its sample count.
pub type LayerValue = (&'static str, f64, u64);

/// Times the leaf layers the pipeline is made of, on this workload's
/// queries and at its shard size: feature extraction, canonical form and
/// memo probe, route planning, both matchers on hit and miss pairs, the
/// bitset kernels, and the admission queue. Measured on every workload,
/// also where the serving path leaves a layer out (caches off, one shard).
pub fn layer_probes(
    spec: &Spec,
    inputs: &Inputs,
    oracle: &Oracle,
    waves: &[Vec<u32>],
) -> Vec<LayerValue> {
    const REPS: usize = 5;
    let config = method_config();
    let mut distinct: Vec<u32> = waves.iter().flatten().copied().collect();
    distinct.sort_unstable();
    distinct.dedup();
    let queries: Vec<&Graph> = distinct
        .iter()
        .map(|&q| &inputs.queries[q as usize])
        .collect();
    let n = queries.len() as u64;
    let mut out: Vec<LayerValue> = Vec::new();

    // Median over repetitions of the mean microseconds per query.
    let mut per_query = |name: &'static str, run: &dyn Fn(&Graph)| {
        let reps: Vec<f64> = (0..REPS)
            .map(|_| {
                let started = Instant::now();
                for q in &queries {
                    run(q);
                }
                started.elapsed().as_secs_f64() * 1e6 / queries.len() as f64
            })
            .collect();
        out.push((name, median(&reps), n));
    };
    per_query("features.paths_us", &|q| {
        black_box(query_paths(q, config.ggsx.max_path_edges));
    });
    per_query("features.trees_us", &|q| {
        black_box(query_trees(q, config.ctindex.max_tree_edges));
    });
    per_query("features.cycles_us", &|q| {
        black_box(enumerate_cycles(q, config.ctindex.max_cycle_edges));
    });
    per_query("features.fingerprint_us", &|q| {
        black_box(Router::graph_fingerprint(q));
    });
    per_query("features.canonical_us", &|q| {
        black_box(answer_memo_key(q));
    });
    let parts = partition_dataset(&inputs.dataset, spec.shards(), spec.strategy());
    let router = Router::build(parts.iter().map(|p| &p.dataset));
    per_query("synopsis.plan_us", &|q| {
        black_box(router.plan(&[q], RoutingMode::Synopsis));
    });
    // Every key probed once cold (miss) and once after its insert (hit).
    let memo = AnswerMemo::new(queries.len().max(1));
    let keys: Vec<String> = queries.iter().filter_map(|q| answer_memo_key(q)).collect();
    let mut probes = Vec::new();
    for _ in 0..REPS {
        memo.invalidate_all();
        let started = Instant::now();
        for key in &keys {
            black_box(memo.lookup(key));
        }
        let cold_s = started.elapsed().as_secs_f64();
        for key in &keys {
            let entry = AnswerEntry {
                answers: Vec::new(),
                candidate_count: 0,
                candidates_pruned: 0,
            };
            memo.insert(key.clone(), entry);
        }
        let started = Instant::now();
        for key in &keys {
            black_box(memo.lookup(key));
        }
        let warm_s = started.elapsed().as_secs_f64();
        probes.push((cold_s + warm_s) * 1e6 / (2 * keys.len()).max(1) as f64);
    }
    out.push((
        "cache.memo_probe_us",
        median(&probes),
        2 * keys.len() as u64,
    ));

    // Matcher pairs: a hit is the query against its first answer; a miss is
    // the query against a non-answer that still has all its labels (what a
    // filter's false positive looks like), or any non-answer failing that.
    let has_labels = |g: &Graph, q: &Graph| {
        let have = g.label_histogram();
        q.label_histogram()
            .iter()
            .all(|(label, &n)| have.get(label).copied().unwrap_or(0) >= n)
    };
    let (mut hits, mut misses) = (Vec::new(), Vec::new());
    for (&q, query) in distinct.iter().zip(&queries) {
        let answers = oracle.expected(q, 0);
        if let Some(&hit) = answers.first() {
            hits.push((*query, inputs.dataset.graph_unchecked(hit)));
        }
        let others = || {
            inputs
                .dataset
                .iter()
                .filter(|(id, _)| answers.binary_search(id).is_err())
                .map(|(_, g)| g)
        };
        if let Some(miss) = others()
            .find(|g| has_labels(g, query))
            .or_else(|| others().next())
        {
            misses.push((*query, miss));
        }
    }
    let mut per_pair = |name: &'static str, pairs: &[(&Graph, &Graph)], tuned: bool| {
        assert!(!pairs.is_empty(), "{name}: the workload has no such pair");
        let matchers: Vec<Vf2Matcher<'_>> = pairs.iter().map(|(q, _)| Vf2Matcher::new(q)).collect();
        let mut state = MatchState::new();
        let reps: Vec<f64> = (0..REPS)
            .map(|_| {
                let started = Instant::now();
                for ((q, g), matcher) in pairs.iter().zip(&matchers) {
                    if tuned {
                        black_box(TunedMatcher::matches(q, g));
                    } else {
                        black_box(matcher.matches_with(&mut state, g));
                    }
                }
                started.elapsed().as_secs_f64() * 1e6 / pairs.len() as f64
            })
            .collect();
        out.push((name, median(&reps), pairs.len() as u64));
    };
    per_pair("iso.vf2_hit_us", &hits, false);
    per_pair("iso.vf2_miss_us", &misses, false);
    per_pair("iso.tuned_hit_us", &hits, true);
    per_pair("iso.tuned_miss_us", &misses, true);

    // Bitset kernels at one shard's universe.
    const KERNEL_CALLS: usize = 20_000;
    let universe = inputs.dataset.len().div_ceil(spec.shards());
    let evens: Vec<GraphId> = (0..universe).step_by(2).collect();
    let other = CandidateSet::from_sorted_ids(universe, &evens);
    let mut set = CandidateSet::full(universe);
    let started = Instant::now();
    for _ in 0..KERNEL_CALLS {
        black_box(&mut set).intersect_with(black_box(&other));
    }
    let intersect_ns = started.elapsed().as_secs_f64() * 1e9 / KERNEL_CALLS as f64;
    let started = Instant::now();
    for _ in 0..KERNEL_CALLS {
        // The insert marks the cached cardinality stale, so `len` sweeps.
        set.insert(0);
        black_box(black_box(&set).len());
    }
    let count_ns = started.elapsed().as_secs_f64() * 1e9 / KERNEL_CALLS as f64;
    out.push(("candidates.intersect_ns", intersect_ns, KERNEL_CALLS as u64));
    out.push(("candidates.count_ns", count_ns, KERNEL_CALLS as u64));

    // Admission queue on its own: one wave in, one drain out.
    const QUEUE_ROUNDS: usize = 200;
    let queue = AdmissionQueue::new(spec.service_options());
    let wave: Vec<&Graph> = queries.iter().copied().cycle().take(spec.wave).collect();
    let (mut submit_us, mut drain_us) = (Vec::new(), Vec::new());
    for _ in 0..QUEUE_ROUNDS {
        let owned: Vec<Graph> = wave.iter().map(|&q| q.clone()).collect();
        let started = Instant::now();
        for q in owned {
            queue
                .submit(q, None)
                .expect("an open queue admits a wave of its capacity");
        }
        submit_us.push(started.elapsed().as_secs_f64() * 1e6 / wave.len() as f64);
        let started = Instant::now();
        black_box(queue.drain_pending());
        drain_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    out.push((
        "admission.submit_us",
        median(&submit_us),
        (QUEUE_ROUNDS * wave.len()) as u64,
    ));
    out.push((
        "admission.drain_pending_us",
        median(&drain_us),
        QUEUE_ROUNDS as u64,
    ));
    out
}
