//! Property test: the routing tier keeps itself exactly current under
//! ingest.
//!
//! That online ingest is invisible in match sets — any interleaving of
//! inserts, removes and memo-warm reads, for every method, shard count,
//! placement and routing tier, against exhaustive VF2 — is the root
//! `config_matrix` oracle (which also checks the service's router against
//! a rebuild at the end of every round-robin ingest script). This suite
//! keeps the router's own contract, without a service around it: it keeps
//! itself current per insert and per remove without rescanning a shard,
//! and after any interleaving every shard's synopsis *equals* what
//! `Router::build` computes from the shard's live graphs.

use proptest::prelude::*;
use sqbench_generator::{GraphGen, GraphGenConfig, RealDataset};
use sqbench_graph::{Dataset, Graph, GraphId, GraphSynopsis, ShardSynopsis};
use sqbench_harness::service::Router;

/// Every shard's incrementally maintained `ShardSynopsis` must **equal**
/// what `Router::build` computes from the shard's live graphs (the rescan
/// `ShardSynopsis::of`) — all fields, the live-graph count included.
fn assert_router_equals_rebuild(router: &Router, shards: &[Dataset], context: &str) {
    assert_eq!(router.shard_count(), shards.len());
    let rebuilt = Router::build(shards.iter());
    for (s, live) in shards.iter().enumerate() {
        let synopsis = router.synopsis(s);
        assert_eq!(synopsis, rebuilt.synopsis(s), "{context}: shard {s}");
        assert_eq!(synopsis.graphs, live.live_len(), "{context}: shard {s}");
    }
}

/// Sparse many-label molecules next to dense few-label synthetic graphs:
/// between them they exercise wide label maps and long degree histograms.
fn router_pool(seed: u64) -> Vec<Graph> {
    let aids = RealDataset::Aids.generate_with(12.0 / 40_000.0, 0.4, seed);
    let synthetic = GraphGen::new(
        GraphGenConfig::default()
            .with_graph_count(12)
            .with_avg_nodes(9)
            .with_avg_density(0.15)
            .with_label_count(4)
            .with_seed(seed),
    )
    .generate();
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
                self.router.retract(s, &GraphSynopsis::of(g));
            }
            None => {
                self.home[i] = Some((shard, self.shards[shard].push(g.clone())));
                self.router.absorb(shard, &GraphSynopsis::of(g));
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
    /// the sole holders of its labels and label pairs — ends at the empty
    /// synopsis.
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
        }
        // Per shard, not per graph: absorbing the whole pool twenty times
        // over costs what absorbing it once does.
        let mut bytes = Vec::new();
        for _ in 0..20 {
            for g in &state.pool {
                state.router.absorb(0, &GraphSynopsis::of(g));
            }
            bytes.push(state.router.synopsis(0).memory_bytes());
        }
        prop_assert_eq!(state.router.synopsis(0).graphs, 20 * pool_len);
        prop_assert!(bytes.iter().all(|&b| b == bytes[0]), "{:?}", bytes);
    }
}
