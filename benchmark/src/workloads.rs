//! The four workloads: frozen sizes, seeded input generation and the
//! correctness oracle.
//!
//! Everything here derives from `--seed` and the fixed [`CORPUS_SEED`]
//! alone. The generator crate gets sub-seeds; the serving library (index,
//! harness) only ever receives the generated graphs, queries and op schedule.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqbench_generator::{label_clustered, GraphGen, GraphGenConfig, QueryGen, RealDataset};
use sqbench_graph::{Dataset, Graph, GraphId, Label};
use sqbench_harness::service::{
    answer_memo_key, CachePolicy, RoutingMode, ServiceOptions, ShardStrategy,
};
use sqbench_index::{exhaustive_answers, MethodConfig, MethodKind};
use std::collections::HashSet;
use std::time::Instant;

/// The seven methods, in the fixed order every run drives them (Tree+Δ
/// learns Δ features at query time, so a fixed order and a fresh index per
/// run are what make its numbers repeat).
pub const METHODS: [(MethodKind, &str); 7] = [
    (MethodKind::Grapes, "grapes"),
    (MethodKind::Ggsx, "ggsx"),
    (MethodKind::CtIndex, "ctindex"),
    (MethodKind::GIndex, "gindex"),
    (MethodKind::TreeDelta, "treedelta"),
    (MethodKind::GCode, "gcode"),
    (MethodKind::Scan, "scan"),
];

/// Threads a service gets: two, so the pool, the executors and their hops
/// are all on the path, though the process runs them on one CPU (see
/// `pin_to_one_cpu`).
pub const SERVICE_THREADS: usize = 2;

/// The paper's §4.1 method parameters, except Grapes' private thread pool:
/// the serving layer already runs [`SERVICE_THREADS`] workers, and the index
/// docs say to configure `threads: 1` under an outer pool.
pub fn method_config() -> MethodConfig {
    let mut config = MethodConfig::default();
    config.grapes.threads = 1;
    config
}

/// Which dataset family a workload draws.
#[derive(Debug, Clone, Copy)]
pub enum DatasetShape {
    /// `RealDataset::Aids` scaled to `graphs` graphs (≈45 nodes, 62 labels).
    AidsLike { graphs: usize },
    /// Plain GraphGen.
    Synthetic {
        graphs: usize,
        nodes: usize,
        density: f64,
        labels: u32,
    },
    /// GraphGen in label-disjoint families (`labels` per family).
    Clustered {
        graphs: usize,
        nodes: usize,
        density: f64,
        labels: u32,
        families: u32,
    },
}

/// Online writes beside the reads (`zipf_churn` only).
#[derive(Debug, Clone, Copy)]
pub struct Churn {
    /// Graphs beyond the initial dataset that the insert stream cycles
    /// through (the stream is the whole generated set, cycled).
    pub extra_graphs: usize,
    /// Distinct queries the Zipf draws range over (upper bound; duplicates
    /// by canonical form are dropped).
    pub pool: usize,
    /// Zipf exponent of the query popularity.
    pub zipf_s: f64,
    /// Read waves between two write bursts.
    pub waves_per_period: usize,
    /// Inserts (and as many removes) per burst.
    pub burst: usize,
}

/// One workload, with its frozen sizes.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub shape: DatasetShape,
    /// Extracted queries per edge size.
    pub query_sizes: &'static [usize],
    /// Distinct queries of a static pass (ignored under churn).
    pub queries: usize,
    /// Share of the static queries turned into decoys that match nothing.
    pub decoy_every: usize,
    /// Queries per closed-loop wave.
    pub wave: usize,
    /// `None` = `QueryService::run_batch`; `Some` = admission queue →
    /// `ShardedService::drain`.
    pub sharded: Option<(usize, ShardStrategy, RoutingMode)>,
    pub cache: bool,
    pub churn: Option<Churn>,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "sparse_screen",
        shape: DatasetShape::AidsLike { graphs: 700 },
        query_sizes: &[4, 8, 16],
        queries: 768,
        decoy_every: 0,
        wave: 128,
        sharded: None,
        cache: false,
        churn: None,
    },
    Spec {
        name: "dense_verify",
        shape: DatasetShape::Synthetic {
            graphs: 400,
            nodes: 24,
            density: 0.12,
            labels: 2,
        },
        query_sizes: &[8, 10],
        queries: 192,
        decoy_every: 0,
        wave: 8,
        sharded: None,
        cache: false,
        churn: None,
    },
    Spec {
        name: "wide_sharded",
        shape: DatasetShape::Clustered {
            graphs: 2000,
            nodes: 10,
            density: 0.2,
            labels: 6,
            families: 4,
        },
        query_sizes: &[4, 6],
        queries: 1024,
        decoy_every: 4,
        wave: 256,
        // Round-robin over the interleaved families puts two whole families
        // on each shard for every seed. `LabelAware` does not: its balance
        // cap is exactly half the total weight, so one family usually spills
        // a few graphs onto the other shard, whose synopsis then admits the
        // whole family — the probed share flips between 0.38 and 0.65 from
        // seed to seed, and throughput with it.
        sharded: Some((2, ShardStrategy::RoundRobin, RoutingMode::Synopsis)),
        cache: false,
        churn: None,
    },
    Spec {
        name: "zipf_churn",
        shape: DatasetShape::AidsLike { graphs: 160 },
        // At most 9 vertices, so every query is memo-eligible (exact
        // canonical forms stop at 10 vertices).
        query_sizes: &[4, 6, 8],
        queries: 0,
        decoy_every: 0,
        wave: 256,
        sharded: Some((2, ShardStrategy::RoundRobin, RoutingMode::Synopsis)),
        cache: true,
        churn: Some(Churn {
            extra_graphs: 80,
            pool: 4096,
            zipf_s: 1.0,
            waves_per_period: 6,
            burst: 8,
        }),
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Shards the serving path (and the hand replay) partitions into.
    pub fn shards(&self) -> usize {
        self.sharded.map_or(1, |(shards, _, _)| shards)
    }

    pub fn strategy(&self) -> ShardStrategy {
        self.sharded
            .map_or(ShardStrategy::RoundRobin, |(_, strategy, _)| strategy)
    }

    pub fn routing(&self) -> RoutingMode {
        self.sharded
            .map_or(RoutingMode::Fanout, |(_, _, routing)| routing)
    }

    pub fn cache_policy(&self) -> CachePolicy {
        if self.cache {
            CachePolicy::enabled()
        } else {
            CachePolicy::disabled()
        }
    }

    /// The options every service of this workload is built from. Service
    /// threads total [`SERVICE_THREADS`]: two batch workers, or two shards
    /// of one fixed worker each.
    pub fn service_options(&self) -> ServiceOptions {
        let opts = ServiceOptions::new()
            .cache(self.cache_policy())
            .queue_capacity(self.wave.max(64));
        match self.sharded {
            None => opts.workers(SERVICE_THREADS),
            Some((shards, strategy, routing)) => opts
                .shards(shards)
                .workers(1)
                .workers_max(1)
                .strategy(strategy)
                .routing(routing),
        }
    }
}

/// A write burst: graphs to insert, then global ids to remove.
pub struct Burst {
    pub inserts: Vec<Graph>,
    pub removes: Vec<GraphId>,
}

/// One pass of the op sequence: the read waves (indices into
/// [`Inputs::queries`]) and the write burst that follows them, if any.
pub struct Pass {
    pub waves: Vec<Vec<u32>>,
    pub burst: Option<Burst>,
}

/// Everything a run feeds the program.
pub struct Inputs {
    /// The dataset every service is built over.
    pub dataset: Dataset,
    /// Under churn: the whole generated set the insert stream cycles
    /// through (its first `dataset.len()` graphs are `dataset`).
    pub stream: Dataset,
    /// The distinct query pool.
    pub queries: Vec<Graph>,
    /// Wall seconds spent generating the dataset / the queries.
    pub dataset_s: f64,
    pub queries_s: f64,
}

/// The seed every workload's dataset is generated from. A workload's corpus
/// is part of its definition, like its sizes (the paper fixes its datasets
/// and draws random query sets over them); `--seed` decides what the client
/// sends: which queries are extracted, their order, the decoys, the Zipf
/// draws. Datasets drawn per seed moved every metric with them — mined
/// vocabularies and so index sizes by 8 %, set-up by 15 %, `dense_verify`
/// throughput by 14 % between seeds, against 3–5 % between runs of one seed
/// — so ten seeds measured the generator, not the program.
const CORPUS_SEED: u64 = 20150831;

/// splitmix64 step, used to derive independent sub-seeds from `--seed`.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

impl Inputs {
    /// Determinism guard: a second generation from the same seed must give
    /// the same graphs and queries (the generation timings may differ).
    pub fn same_as(&self, other: &Inputs) -> bool {
        self.dataset == other.dataset
            && self.stream == other.stream
            && self.queries == other.queries
    }

    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let started = Instant::now();
        let extra = spec.churn.map_or(0, |c| c.extra_graphs);
        let graphgen = |graphs: usize, nodes, density, labels| {
            GraphGenConfig::default()
                .with_graph_count(graphs + extra)
                .with_avg_nodes(nodes)
                .with_avg_density(density)
                .with_label_count(labels)
                .with_seed(sub_seed(CORPUS_SEED, 1))
        };
        let stream = match spec.shape {
            DatasetShape::AidsLike { graphs } => RealDataset::Aids.generate_with(
                (graphs + extra) as f64 / RealDataset::Aids.spec().graph_count as f64,
                1.0,
                sub_seed(CORPUS_SEED, 1),
            ),
            DatasetShape::Synthetic {
                graphs,
                nodes,
                density,
                labels,
            } => GraphGen::new(graphgen(graphs, nodes, density, labels)).generate(),
            DatasetShape::Clustered {
                graphs,
                nodes,
                density,
                labels,
                families,
            } => label_clustered(&graphgen(graphs, nodes, density, labels), families),
        };
        let dataset = stream.truncated(stream.len() - extra);
        let dataset_s = started.elapsed().as_secs_f64();

        let started = Instant::now();
        // Under churn the query pool and its popularity ranks belong to the
        // corpus too, and the seed draws the arrivals: a cold wave holds the
        // rank-1 query some 28 times, so which queries head a per-seed pool
        // moved the cold waves (`wave_p90_ms`) 9–13 % between seeds.
        let query_seed = if spec.churn.is_some() {
            CORPUS_SEED
        } else {
            seed
        };
        let mut rng = StdRng::seed_from_u64(sub_seed(query_seed, 2));
        let wanted = spec.churn.map_or(spec.queries, |c| c.pool);
        let per_size = wanted.div_ceil(spec.query_sizes.len());
        // Queries are extracted from the whole stream, so under churn some
        // only gain an answer once their source graph is inserted.
        let mut queries: Vec<Graph> = spec
            .query_sizes
            .iter()
            .flat_map(|&edges| {
                QueryGen::new(sub_seed(query_seed, 3))
                    .generate(&stream, per_size, edges)
                    .queries
            })
            .collect();
        if spec.churn.is_some() {
            // The cache-fit reasoning (hot head vs memo capacity) needs the
            // pool distinct by canonical form, which is the memo's key.
            let mut seen = HashSet::new();
            queries.retain(|q| answer_memo_key(q).is_none_or(|key| seen.insert(key)));
        }
        if let (
            DatasetShape::Clustered {
                labels, families, ..
            },
            true,
        ) = (spec.shape, spec.decoy_every > 0)
        {
            // Decoys: one vertex label moved into a label family no graph
            // has, so the query matches nothing and a synopsis router can
            // prove that without probing a shard.
            let absent = labels * families;
            for q in queries.iter_mut().step_by(spec.decoy_every) {
                let victim = rng.gen_range(0..q.vertex_count());
                let mut vertex = 0;
                q.map_labels(|label: Label| {
                    vertex += 1;
                    if vertex - 1 == victim {
                        absent + label % labels
                    } else {
                        label
                    }
                });
            }
        }
        // Mixed sizes in every wave, so wave latencies are one population.
        shuffle(&mut queries, &mut rng);
        queries.truncate(wanted);
        let queries_s = started.elapsed().as_secs_f64();
        Inputs {
            dataset,
            stream,
            queries,
            dataset_s,
            queries_s,
        }
    }
}

/// Expected answers per query and pass.
///
/// Static workloads: `exhaustive_answers` over the dataset, once per query.
/// Churn: the live set after `p` bursts is the id window
/// `[p·burst, p·burst + N)` over the cycled stream (oldest graphs leave,
/// the stream's next graphs join), so the answers of pass `p` follow from
/// each query's matches over one stream cycle. [`Oracle::cross_check`]
/// replays the bursts on a shadow `Dataset` and compares against
/// `exhaustive_answers` on it.
pub struct Oracle {
    /// Per query, the ids (within one stream cycle) of graphs containing it.
    matches: Vec<Vec<GraphId>>,
    live: usize,
    cycle: usize,
    burst: usize,
}

impl Oracle {
    pub fn build(spec: &Spec, inputs: &Inputs) -> Oracle {
        Oracle {
            matches: inputs
                .queries
                .iter()
                .map(|q| exhaustive_answers(&inputs.stream, q))
                .collect(),
            live: inputs.dataset.len(),
            cycle: inputs.stream.len(),
            burst: spec.churn.map_or(0, |c| c.burst),
        }
    }

    /// The exact answer set of query `q` during pass `pass`.
    pub fn expected(&self, q: u32, pass: usize) -> Vec<GraphId> {
        let low = pass * self.burst;
        let mut answers: Vec<GraphId> = self.matches[q as usize]
            .iter()
            .map(|&m| low + (m + self.cycle - low % self.cycle) % self.cycle)
            .filter(|&id| id < low + self.live)
            .collect();
        answers.sort_unstable();
        answers
    }

    /// Mirrors `passes` bursts on a shadow dataset and checks a sample of
    /// the closed-form answers against `exhaustive_answers` over it.
    pub fn cross_check(&self, inputs: &Inputs, schedule: &mut Schedule<'_>, passes: usize) {
        let mut shadow = inputs.dataset.clone();
        for p in 0..passes {
            let pass = schedule.pass(p);
            for &q in pass.waves.iter().filter_map(|w| w.first()) {
                assert_eq!(
                    self.expected(q, p),
                    exhaustive_answers(&shadow, &inputs.queries[q as usize]),
                    "oracle disagrees with the shadow dataset at pass {p}, query {q}"
                );
            }
            let Some(burst) = pass.burst else { return };
            for graph in burst.inserts {
                shadow.push(graph);
            }
            for id in burst.removes {
                assert!(shadow.remove(id), "burst removes a live graph");
            }
        }
    }
}

/// The op sequence, pass by pass. Static workloads repeat one pass (every
/// query once, in waves); churn draws each period's waves from a Zipf over
/// the pool and follows them with a burst, so `pass(p)` must be called for
/// `p = 0, 1, 2, …` in order.
pub struct Schedule<'a> {
    spec: &'a Spec,
    inputs: &'a Inputs,
    rng: StdRng,
    /// Cumulative Zipf weights over the pool (churn only).
    cdf: Vec<f64>,
}

impl<'a> Schedule<'a> {
    pub fn new(spec: &'a Spec, inputs: &'a Inputs, seed: u64) -> Self {
        let mut cdf = Vec::new();
        if let Some(churn) = spec.churn {
            let mut total = 0.0;
            for rank in 1..=inputs.queries.len() {
                total += 1.0 / (rank as f64).powf(churn.zipf_s);
                cdf.push(total);
            }
        }
        Schedule {
            spec,
            inputs,
            rng: StdRng::seed_from_u64(sub_seed(seed, 4)),
            cdf,
        }
    }

    pub fn pass(&mut self, p: usize) -> Pass {
        let wave = self.spec.wave;
        let Some(churn) = self.spec.churn else {
            let all: Vec<u32> = (0..self.inputs.queries.len() as u32).collect();
            return Pass {
                waves: all.chunks(wave).map(<[u32]>::to_vec).collect(),
                burst: None,
            };
        };
        let total = *self.cdf.last().expect("churn has a query pool");
        let waves = (0..churn.waves_per_period)
            .map(|_| {
                (0..wave)
                    .map(|_| {
                        let u = self.rng.gen::<f64>() * total;
                        self.cdf.partition_point(|&c| c <= u) as u32
                    })
                    .collect()
            })
            .collect();
        let live = self.inputs.dataset.len();
        let cycle = self.inputs.stream.len();
        let first = p * churn.burst;
        Pass {
            waves,
            burst: Some(Burst {
                inserts: (first..first + churn.burst)
                    .map(|i| {
                        self.inputs
                            .stream
                            .graph_unchecked((live + i) % cycle)
                            .clone()
                    })
                    .collect(),
                removes: (first..first + churn.burst).collect(),
            }),
        }
    }
}
