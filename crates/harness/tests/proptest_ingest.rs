//! Property tests: online ingest is invisible in match sets.
//!
//! The mutable-dataset contract is *answer equivalence*: after any
//! interleaving of inserts, removals and queries, a service that absorbed
//! the mutations incrementally must return exactly the answers of an
//! index rebuilt from scratch over the surviving dataset. Candidate sets
//! may differ — a mutated gIndex or Tree+Δ keeps its frozen feature
//! vocabulary, so it can filter more loosely than a re-mined rebuild —
//! but the verified answers may not.
//!
//! The matrix runs every method (the six indexed ones plus the scan
//! baseline) over {1, 4} shards under all three [`RoutingMode`]s with
//! **both cache levels enabled**, so a stale feature bitset or answer-memo
//! entry surviving a mutation cannot hide: each query runs twice, and the
//! second, memo-warmed wave must still match the rebuilt-from-scratch
//! oracle. A removal-heavy script does the same across the index
//! compaction threshold while routed.
//!
//! The routing tier keeps itself current per insert and per remove
//! without rescanning a shard; its contract is *equality with a rebuild*:
//! after any interleaving, every shard's synopsis and fingerprint equal
//! what `Router::build` computes from the shard's live graphs. That is
//! pinned on the router alone (random absorb/retract scripts over
//! AIDS-like and GraphGen graphs) and at the end of every service script.
//!
//! A deterministic soak drives the same contract through the admission
//! queue: a scripted mixed read/write workload drains in ticket order,
//! loses no tickets, and every read observes exactly the dataset state of
//! its admission point.

use proptest::prelude::*;
use sqbench_generator::{GraphGen, GraphGenConfig, QueryGen, RealDataset};
use sqbench_graph::{Dataset, Graph, GraphId, GraphSynopsis, ShardSynopsis};
use sqbench_harness::service::{
    AdmissionQueue, CachePolicy, QueryOutcome, Router, RoutingMode, ServiceOptions, ShardedService,
    Ticket,
};
use sqbench_index::{build_index, MethodConfig, MethodKind};

const ALL_ROUTING_MODES: [RoutingMode; 3] = [
    RoutingMode::Fanout,
    RoutingMode::Synopsis,
    RoutingMode::SynopsisFingerprint,
];

const ALL_METHODS: [MethodKind; 7] = [
    MethodKind::Grapes,
    MethodKind::Ggsx,
    MethodKind::CtIndex,
    MethodKind::GIndex,
    MethodKind::TreeDelta,
    MethodKind::GCode,
    MethodKind::Scan,
];

fn dataset_from_seed(seed: u64, graphs: usize) -> Dataset {
    GraphGen::new(
        GraphGenConfig::default()
            .with_graph_count(graphs)
            .with_avg_nodes(9)
            .with_avg_density(0.15)
            .with_label_count(4)
            .with_seed(seed),
    )
    .generate()
}

/// Graphs to feed the insert path: drawn from the same generator family
/// as the dataset (so inserted graphs actually join answer sets) but from
/// an independent seed (so they are not byte-identical to resident ones).
fn insert_pool(seed: u64, graphs: usize) -> Vec<Graph> {
    let pool = dataset_from_seed(seed ^ 0xfeed_beef, graphs);
    pool.ids()
        .map(|id| pool.graph_unchecked(id).clone())
        .collect()
}

/// One scripted mutation-or-read step, decoded from proptest bytes.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert,
    Remove(u8),
    Query(u8),
}

fn decode(kind: u8, sel: u8) -> Op {
    match kind % 3 {
        0 => Op::Insert,
        1 => Op::Remove(sel),
        _ => Op::Query(sel),
    }
}

/// Every shard's incrementally maintained `(ShardSynopsis, Fingerprint)`
/// must **equal** what `Router::build` computes from the shard's live
/// graphs, and what the rescan oracle pair does — all fields, the
/// live-graph count included.
fn assert_router_equals_rebuild(router: &Router, shards: &[Dataset], context: &str) {
    assert_eq!(router.shard_count(), shards.len());
    let rebuilt = Router::build(shards.iter());
    for (s, live) in shards.iter().enumerate() {
        let (synopsis, fingerprint) = (router.synopsis(s), router.fingerprint(s));
        assert_eq!(synopsis, rebuilt.synopsis(s), "{context}: shard {s}");
        assert_eq!(fingerprint, rebuilt.fingerprint(s), "{context}: shard {s}");
        assert_eq!(synopsis, &ShardSynopsis::of(live), "{context}: shard {s}");
        assert_eq!(
            fingerprint,
            &Router::shard_fingerprint(live),
            "{context}: shard {s}"
        );
        assert_eq!(synopsis.graphs, live.live_len(), "{context}: shard {s}");
    }
}

/// The service's router against one rebuilt from `mirror`'s live graphs,
/// laid out the way round-robin placement does offline and online alike
/// (global id `i` lives on shard `i % shards`).
fn assert_service_router_equals_rebuild(service: &ShardedService, mirror: &Dataset, context: &str) {
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
    assert_router_equals_rebuild(service.router(), &live, context);
}

/// Sparse many-label molecules next to dense few-label synthetic graphs:
/// between them they exercise wide label maps, long degree histograms and
/// crowded fingerprints.
fn router_pool(seed: u64) -> Vec<Graph> {
    let aids = RealDataset::Aids.generate_with(12.0 / 40_000.0, 0.4, seed);
    let synthetic = dataset_from_seed(seed, 12);
    aids.into_iter().chain(synthetic).collect()
}

/// The router under test beside its mirror: a tombstoning `Dataset` per
/// shard, as in the service, so the rescan oracle sees dead slots too.
struct RouterScript {
    pool: Vec<Graph>,
    router: Router,
    shards: Vec<Dataset>,
    /// Where each pool graph currently lives: (shard, local id).
    home: Vec<Option<(usize, GraphId)>>,
}

impl RouterScript {
    fn new(pool: Vec<Graph>, shards: usize) -> Self {
        let shards: Vec<Dataset> = (0..shards).map(|s| Dataset::new(format!("s{s}"))).collect();
        RouterScript {
            home: vec![None; pool.len()],
            router: Router::build(shards.iter()),
            pool,
            shards,
        }
    }

    /// Retracts pool graph `i` if it is live, absorbs it into `shard` if
    /// not, then checks the equality invariant.
    fn toggle(&mut self, i: usize, shard: usize, context: &str) {
        let g = &self.pool[i];
        match self.home[i].take() {
            Some((s, local)) => {
                assert!(self.shards[s].remove(local));
                self.router.retract(s, g, &GraphSynopsis::of(g));
            }
            None => {
                self.home[i] = Some((shard, self.shards[shard].push(g.clone())));
                self.router.absorb(shard, g, &GraphSynopsis::of(g));
            }
        }
        assert_router_equals_rebuild(&self.router, &self.shards, context);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The routing tier's own contract, without a service around it: any
    /// script of absorbs and retracts leaves every shard equal to a rebuild
    /// over its live graphs after **every** step, and retracting everything
    /// — which removes, one by one, each shard's maximum-degree graph and
    /// the sole holders of its labels, label pairs and fingerprint bits —
    /// ends at the empty synopsis and the all-zero fingerprint.
    #[test]
    fn incremental_router_equals_rebuild(
        seed in 0u64..500,
        script in collection::vec((any::<u8>(), any::<u8>()), 40..80),
    ) {
        const SHARDS: usize = 2;
        let mut state = RouterScript::new(router_pool(seed), SHARDS);
        let pool_len = state.pool.len();
        for (step, &(shard, pick)) in script.iter().enumerate() {
            state.toggle(
                pick as usize % pool_len,
                shard as usize % SHARDS,
                &format!("seed {seed} step {step}"),
            );
        }
        // Drain: retract whatever is live, in an order the seed picks.
        for i in (0..pool_len).map(|i| (i + seed as usize) % pool_len) {
            if state.home[i].is_some() {
                state.toggle(i, 0, &format!("seed {seed} drain {i}"));
            }
        }
        for s in 0..SHARDS {
            prop_assert_eq!(state.router.synopsis(s), &ShardSynopsis::default());
            prop_assert_eq!(state.router.fingerprint(s).count_ones(), 0);
        }
        // Per shard, not per graph: absorbing the whole pool twenty times
        // over costs what absorbing it once does.
        let mut bytes = Vec::new();
        for _ in 0..20 {
            for g in &state.pool {
                state.router.absorb(0, g, &GraphSynopsis::of(g));
            }
            bytes.push(state.router.memory_bytes());
        }
        prop_assert_eq!(state.router.synopsis(0).graphs, 20 * pool_len);
        prop_assert!(bytes.iter().all(|&b| b == bytes[0]), "{:?}", bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The acceptance property: any interleaving of insert/remove/query
    /// answers exactly like re-indexing from scratch — for all seven
    /// methods, unsharded (one shard) and across four shards, fanned out
    /// and routed by either tier, with both cache levels enabled
    /// throughout.
    #[test]
    fn interleaved_ingest_matches_rebuild_for_all_methods(
        seed in 0u64..200,
        graphs in 8usize..13,
        script in collection::vec((any::<u8>(), any::<u8>()), 6..10),
    ) {
        let ds = dataset_from_seed(seed, graphs);
        let pool = insert_pool(seed, 4);
        let queries = workload(&ds, seed ^ 0x16e57, 3);
        for kind in ALL_METHODS {
            for shards in [1usize, 4] {
                for routing in ALL_ROUTING_MODES {
                    run_ingest_script(kind, shards, routing, &ds, &pool, &queries, &script);
                }
            }
        }
    }
}

/// The same cell check where removes dominate: 80 of 96 graphs leave a
/// 2-shard service, 40 per shard — past the index compaction threshold
/// (≥ 32 dead ids and ≥ 1/8 of a shard's universe) on both — with an
/// insert and a twice-served read every eighth remove, under every
/// routing mode. Sole witnesses of routing bounds go throughout, so a
/// router that kept a stale bound or dropped a live one would route a
/// read past its answers (or fail the closing equality with a rebuild).
#[test]
fn removal_heavy_routed_ingest_crosses_the_compaction_threshold() {
    let ds = dataset_from_seed(11, 96);
    let pool = insert_pool(11, 4);
    let queries = workload(&ds, 0xc0de, 4);
    let mut script = Vec::new();
    // 37 is coprime to 80: every id in 0..80 is removed exactly once.
    for (n, id) in (0..80u32).map(|i| (i * 37 % 80) as u8).enumerate() {
        script.push((1, id));
        if n % 8 == 7 {
            script.extend([(0, 0), (2, n as u8)]);
        }
    }
    for kind in ALL_METHODS {
        for routing in ALL_ROUTING_MODES {
            run_ingest_script(kind, 2, routing, &ds, &pool, &queries, &script);
        }
    }
}

fn workload(ds: &Dataset, seed: u64, queries: usize) -> Vec<Graph> {
    QueryGen::new(seed)
        .generate(ds, queries, 4)
        .iter()
        .map(|(q, _)| q.clone())
        .collect()
}

/// One cell of the ingest matrix: replays `script` on a `kind` service
/// over `shards` shards under `routing` (both cache levels on) and on a
/// mirror dataset, checking every read against a from-scratch rebuild.
fn run_ingest_script(
    kind: MethodKind,
    shards: usize,
    routing: RoutingMode,
    ds: &Dataset,
    pool: &[Graph],
    queries: &[Graph],
    script: &[(u8, u8)],
) {
    let config = MethodConfig::fast();
    let cell = format!("{} x {shards} shards x {}", kind.name(), routing.name());
    let mut service = ShardedService::new(
        kind,
        &config,
        ds,
        ServiceOptions::new()
            .shards(shards)
            .routing(routing)
            .cache(CachePolicy::enabled()),
    );
    // The mirror replays every mutation on a plain Dataset; a
    // from-scratch rebuild over it is the ground truth.
    let mut mirror = ds.clone();
    let mut next_insert = 0usize;

    for (step, &(kind_byte, sel)) in script.iter().enumerate() {
        match decode(kind_byte, sel) {
            Op::Insert => {
                let g = pool[next_insert % pool.len()].clone();
                next_insert += 1;
                let got = service.insert_graph(g.clone());
                let want = mirror.push(g);
                assert_eq!(got, want, "{cell}: insert ids diverged at step {step}");
            }
            Op::Remove(sel) => {
                let target = sel as GraphId % mirror.len();
                let got = service.remove_graph(target);
                let want = mirror.remove(target);
                assert_eq!(
                    got, want,
                    "{cell}: removal of {target} diverged at step {step}"
                );
            }
            Op::Query(sel) => {
                let q = &queries[sel as usize % queries.len()];
                let expected = build_index(kind, &config, &mirror)
                    .query(&mirror, q)
                    .answers;
                // Twice: the second wave is memo-warmed, so a
                // stale cache entry would surface here.
                for wave in 0..2 {
                    let report = service.run_wave(&[q], None);
                    assert_eq!(
                        &report.records[0].answers, &expected,
                        "{cell}: wave {wave} diverged from rebuild at step {step}"
                    );
                }
            }
        }
    }

    // Whatever the script did, the end state must answer every
    // workload query exactly like a from-scratch rebuild.
    for q in queries {
        let expected = build_index(kind, &config, &mirror)
            .query(&mirror, q)
            .answers;
        let report = service.run_wave(&[q], None);
        assert_eq!(
            &report.records[0].answers, &expected,
            "{cell}: final state diverged from rebuild"
        );
        assert!(report.records[0]
            .answers
            .iter()
            .all(|&id| mirror.is_live(id)));
    }
    assert_service_router_equals_rebuild(&service, &mirror, &cell);
}

/// The mixed read/write soak of the CI `ingest-proptest` job: a scripted
/// workload of reads, inserts and removals flows through one admission
/// queue and drains in ticket order. No ticket may be lost, mutation
/// accounting must balance, and every read must observe exactly the
/// dataset state of its admission point — with the answer memo enabled
/// and demonstrably hot (repeated reads between mutations), so a stale
/// cached answer cannot survive.
#[test]
fn mixed_read_write_soak_loses_no_tickets_and_serves_no_stale_answers() {
    let ds = dataset_from_seed(7, 12);
    let config = MethodConfig::fast();
    let queries: Vec<Graph> = QueryGen::new(0x50a)
        .generate(&ds, 3, 4)
        .iter()
        .map(|(q, _)| q.clone())
        .collect();
    let pool = insert_pool(7, 4);
    let mut service = ShardedService::new(
        MethodKind::Grapes,
        &config,
        &ds,
        ServiceOptions::new()
            .shards(4)
            .cache(CachePolicy::enabled()),
    );

    // Script: each round drains three waves through the same queue —
    // a cold read pass, a repeat read pass (the memo, probed once per
    // wave, only hits across waves), then a mutation followed by reads
    // that must observe the post-mutation state.
    #[derive(Debug, Clone)]
    enum Planned {
        Read(usize),
        Insert(usize),
        Remove(GraphId),
    }
    let mut waves: Vec<Vec<Planned>> = Vec::new();
    for round in 0..4usize {
        let reads: Vec<Planned> = (0..queries.len()).map(Planned::Read).collect();
        waves.push(reads.clone());
        waves.push(reads.clone());
        let mutation = if round % 2 == 0 {
            Planned::Insert(round / 2)
        } else {
            Planned::Remove(round as GraphId)
        };
        let mut mixed = vec![mutation];
        mixed.extend(reads);
        waves.push(mixed);
    }

    let queue = AdmissionQueue::new(ServiceOptions::new().queue_capacity(64));
    let mut script = Vec::new();
    let mut records = Vec::new();
    let (mut inserts, mut removes) = (0usize, 0usize);
    for wave in &waves {
        for op in wave {
            match op {
                Planned::Read(qi) => queue.submit(queries[*qi].clone(), None).unwrap(),
                Planned::Insert(pi) => queue.submit_insert(pool[*pi].clone()).unwrap(),
                Planned::Remove(id) => queue.submit_remove(*id).unwrap(),
            };
        }
        let report = service.drain(&queue, None);
        assert_eq!(report.records.len(), wave.len(), "a ticket was lost");
        assert_eq!(report.expired(), 0);
        inserts += report.inserts_applied;
        removes += report.removes_applied;
        script.extend(wave.iter().cloned());
        records.extend(report.records);
    }

    // No lost tickets: one record per submitted op, in ticket order,
    // numbered continuously across every drained wave.
    assert_eq!(records.len(), script.len());
    let tickets: Vec<Ticket> = records.iter().map(|r| r.ticket).collect();
    assert_eq!(tickets, (0..script.len() as Ticket).collect::<Vec<_>>());
    assert_eq!(inserts, 2);
    assert_eq!(removes, 2);

    // Replay the script against a mirror dataset: every read's answers
    // must equal a from-scratch rebuild over the mirror at that instant.
    let mut mirror = ds.clone();
    let mut oracle = Some(build_index(MethodKind::Grapes, &config, &mirror));
    for (op, record) in script.iter().zip(&records) {
        match op {
            Planned::Read(qi) => {
                let oracle =
                    oracle.get_or_insert_with(|| build_index(MethodKind::Grapes, &config, &mirror));
                let expected = oracle.query(&mirror, &queries[*qi]).answers;
                assert_eq!(
                    record.answers, expected,
                    "ticket {} served answers from a stale dataset state",
                    record.ticket
                );
            }
            Planned::Insert(pi) => {
                mirror.push(pool[*pi].clone());
                oracle = None; // rebuild lazily at the next read
                assert_eq!(record.outcome, QueryOutcome::Complete);
                assert!(record.answers.is_empty());
            }
            Planned::Remove(id) => {
                assert!(mirror.remove(*id));
                oracle = None;
                assert_eq!(record.outcome, QueryOutcome::Complete);
                assert!(record.answers.is_empty());
            }
        }
    }

    // The staleness check above only bites if the memo actually served
    // hits between mutations — prove it was hot.
    assert!(
        service.cache_counters().answer_hits > 0,
        "soak never exercised the answer memo"
    );
}
