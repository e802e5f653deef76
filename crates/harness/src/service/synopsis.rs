//! Selective shard routing: decide, per query, which shards can possibly
//! hold a match — before any index is probed.
//!
//! The paper's central finding is that *filtering power* dominates query
//! cost: every graph an index prunes is a verification the matcher never
//! runs. Sharding adds a coarser tier to that funnel. A fanned-out wave
//! pays index probe + merge on every shard, even ones that provably
//! contain no match; the distributed subgraph-matching line of work
//! (partition signatures on billion-node graphs, NScale's
//! neighborhood-satisfying subgraph routing) skips those partitions with
//! per-partition summaries. [`Router`] is that summary tier here: each
//! shard carries a [`ShardSynopsis`] (label multiplicities, degree
//! histogram, edge label pairs, size maxima — folded at partition time,
//! then kept current per insert *and per remove* in O(the one graph)), and
//! a wave consults [`Router::plan`] to dispatch each query only to shards
//! whose synopsis admits it.
//!
//! Routing obeys the same **no-false-negative contract** as index
//! filtering: [`ShardSynopsis::admits`] is a sound necessary condition
//! (see its docs for the monotonicity argument), so a skipped shard
//! *provably* holds no answer and routed match sets stay bit-identical to
//! full fan-out. The routing-equivalence proptest and the `micro_routing`
//! bench's correctness gate enforce exactly that.
//!
//! The bound checks are the only routing tier. A second one, a per-shard
//! path-feature fingerprint, was deleted: no served workload selected it,
//! keeping it current cost a path enumeration per graph on every build,
//! insert and remove, and on `wide_sharded` the query's fingerprint alone
//! cost 9.2 µs against 0.82 µs for the whole bounds plan.

use sqbench_features::canonical::path_key;
use sqbench_features::paths::for_each_path;
use sqbench_features::Fingerprint;
use sqbench_graph::{Dataset, Graph, GraphSynopsis, ShardSynopsis};

/// How a [`super::ShardedService`] wave chooses which shards to probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingMode {
    /// Probe every shard for every query (the pre-routing behaviour; the
    /// default).
    #[default]
    Fanout,
    /// Consult the per-shard [`ShardSynopsis`] bound checks; probe only
    /// shards that admit the query. Sound: skipped shards provably hold no
    /// match. Planning costs one query-synopsis computation per query —
    /// microseconds per wave.
    Synopsis,
}

impl RoutingMode {
    /// Short name used in logs, CSV descriptions and bench ids.
    pub fn name(&self) -> &'static str {
        match self {
            RoutingMode::Fanout => "fanout",
            RoutingMode::Synopsis => "routed",
        }
    }
}

/// The routing planner: one [`ShardSynopsis`] per shard, consulted before
/// each wave. Building it costs one synopsis per live graph; consulting it
/// costs one query-synopsis computation plus `O(shards)` admissibility
/// checks per query — orders of magnitude below a single index probe.
///
/// # Keeping it current
///
/// The routing tier is **exactly subtractable**: [`Router::absorb`] and its
/// inverse [`Router::retract`] each cost one graph's synopsis, never a pass
/// over the shard. The synopsis carries the multiplicity of every bound's
/// witnesses (see [`ShardSynopsis`]). The invariant, pinned by the
/// `incremental_router_equals_rebuild` property: after any interleaving of
/// absorbs and retracts, every shard's synopsis **equals** what
/// [`Router::build`] computes from the shard's live graphs — so the router
/// under-admits never and over-admits exactly as much as a rebuild would.
#[derive(Debug, Clone)]
pub struct Router {
    synopses: Vec<ShardSynopsis>,
}

impl Router {
    /// A path fingerprint of one graph: every simple path of ≤ 3 edges
    /// hashed twice into 2048 bits. No routing decision reads it; it is
    /// kept only as the name the benchmark's `features.fingerprint_us`
    /// row times.
    pub fn graph_fingerprint(g: &Graph) -> Fingerprint {
        let mut fp = Fingerprint::new(2048);
        for_each_path(g, 3, |labels, _| fp.insert_key(&path_key(labels), 2));
        fp
    }

    /// Builds the router over the shards' dataset slices, in shard order,
    /// by absorbing every live graph.
    pub fn build<'a>(shards: impl IntoIterator<Item = &'a Dataset>) -> Self {
        Router {
            synopses: shards.into_iter().map(ShardSynopsis::of).collect(),
        }
    }

    /// Number of shards the router covers.
    pub fn shard_count(&self) -> usize {
        self.synopses.len()
    }

    /// The synopsis of one shard.
    pub fn synopsis(&self, shard: usize) -> &ShardSynopsis {
        &self.synopses[shard]
    }

    /// Widens one shard's synopsis in place with a newly inserted graph.
    /// Widening preserves the no-false-negative contract trivially: every
    /// bound only grows, so previously admitted queries stay admitted and
    /// the new graph's own subgraphs are now dominated too.
    pub fn absorb(&mut self, shard: usize, synopsis: &GraphSynopsis) {
        self.synopses[shard].absorb(synopsis);
    }

    /// The inverse of [`Router::absorb`]: takes a graph the shard is losing
    /// back out of its synopsis. A bound goes only when the graph was its
    /// last witness, so what is left still dominates every live graph —
    /// and is exactly what a rebuild over them would produce.
    ///
    /// # Panics
    ///
    /// If the graph was never absorbed into `shard`.
    pub fn retract(&mut self, shard: usize, synopsis: &GraphSynopsis) {
        self.synopses[shard].retract(synopsis);
    }

    /// Routes one query through the bound checks: `mask[s]` is `true` iff
    /// shard `s` must be probed under [`RoutingMode::Synopsis`].
    pub fn route(&self, query: &Graph) -> Vec<bool> {
        let q = GraphSynopsis::of(query);
        self.synopses.iter().map(|s| s.admits(&q)).collect()
    }

    /// Plans a whole wave under `mode`: for each shard, the (ascending)
    /// wave indices of the queries it must serve. Under
    /// [`RoutingMode::Fanout`] every shard serves every query; under
    /// [`RoutingMode::Synopsis`] each query's synopsis is computed once and
    /// bound-tested against every shard.
    pub fn plan(&self, queries: &[&Graph], mode: RoutingMode) -> Vec<Vec<usize>> {
        if mode == RoutingMode::Fanout {
            return vec![(0..queries.len()).collect(); self.synopses.len()];
        }
        let query_synopses: Vec<GraphSynopsis> =
            queries.iter().map(|q| GraphSynopsis::of(q)).collect();
        self.synopses
            .iter()
            .map(|shard| {
                (0..queries.len())
                    .filter(|&qi| shard.admits(&query_synopses[qi]))
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqbench_graph::GraphBuilder;

    fn mono_path(label: u32, n: usize) -> Graph {
        let labels = vec![label; n];
        let edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        GraphBuilder::new(format!("p{label}x{n}"))
            .vertices(&labels)
            .edges(&edges)
            .build()
            .unwrap()
    }

    fn shard_of(label: u32, sizes: &[usize]) -> Dataset {
        Dataset::from_graphs(
            format!("shard-l{label}"),
            sizes.iter().map(|&n| mono_path(label, n)).collect(),
        )
    }

    #[test]
    fn router_routes_by_label_family_and_fanout_probes_all() {
        // Three label-disjoint shards; queries can only match their own.
        let shards = [shard_of(0, &[4, 5]), shard_of(1, &[4]), shard_of(2, &[6])];
        let router = Router::build(shards.iter());
        assert_eq!(router.shard_count(), 3);
        let q0 = mono_path(0, 3);
        let q2 = mono_path(2, 3);
        assert_eq!(router.route(&q0), vec![true, false, false]);
        assert_eq!(router.route(&q2), vec![false, false, true]);

        let queries = [&q0, &q2];
        let routed = router.plan(&queries, RoutingMode::Synopsis);
        assert_eq!(routed, vec![vec![0], vec![], vec![1]]);
        let fanout = router.plan(&queries, RoutingMode::Fanout);
        assert_eq!(fanout, vec![vec![0, 1]; 3]);
    }

    #[test]
    fn router_rejects_oversized_queries_everywhere() {
        let shards = [shard_of(0, &[3]), shard_of(0, &[4])];
        let router = Router::build(shards.iter());
        // 5 vertices fit no single graph: admitted nowhere, probed nowhere.
        let too_big = mono_path(0, 5);
        assert_eq!(router.route(&too_big), vec![false, false]);
        // 4 vertices fit only the second shard's graph.
        assert_eq!(router.route(&mono_path(0, 4)), vec![false, true]);
        // Synopses are consultable individually.
        assert_eq!(router.synopsis(1).max_vertices, 4);
    }

    #[test]
    fn empty_wave_plans_are_empty_for_every_shard() {
        let shards = [shard_of(0, &[3]), Dataset::new("empty")];
        let router = Router::build(shards.iter());
        for mode in [RoutingMode::Fanout, RoutingMode::Synopsis] {
            assert_eq!(router.plan(&[], mode), vec![Vec::<usize>::new(); 2]);
        }
        assert_eq!(RoutingMode::Fanout.name(), "fanout");
        assert_eq!(RoutingMode::Synopsis.name(), "routed");
        assert_eq!(RoutingMode::default(), RoutingMode::Fanout);
    }

    #[test]
    fn retract_leaves_exactly_the_rescan_of_what_is_left() {
        // Two graphs share the 7-7 pair; only the chain has four 7s and
        // only the decoy a 9.
        let chain = mono_path(7, 4);
        let pair = mono_path(7, 2);
        let decoy = GraphBuilder::new("decoy")
            .vertices(&[7, 9])
            .edges(&[(0, 1)])
            .build()
            .unwrap();
        let graphs = [chain.clone(), pair.clone(), decoy.clone()];
        let mut shard = Dataset::from_graphs("s", graphs.to_vec());
        let mut router = Router::build([&shard]);
        let full = router.synopsis(0).clone();

        // The chain leaves: the result is exactly the rescan over what is
        // left, tombstone and all.
        router.retract(0, &GraphSynopsis::of(&chain));
        assert!(shard.remove(0));
        assert_eq!(router.synopsis(0), &ShardSynopsis::of(&shard));
        assert_eq!(router.synopsis(0).graphs, 2, "the dead slot is no graph");
        assert_eq!(router.route(&mono_path(7, 3)), vec![false]);
        assert_eq!(router.route(&pair), vec![true]);

        // Absorbing it again restores every bound; retracting everything
        // returns the empty router state.
        router.absorb(0, &GraphSynopsis::of(&chain));
        assert_eq!(router.synopsis(0), &full);
        for g in &graphs {
            router.retract(0, &GraphSynopsis::of(g));
        }
        assert_eq!(router.synopsis(0), &ShardSynopsis::default());
    }

    #[test]
    fn build_skips_tombstoned_slots() {
        let mut shard = shard_of(0, &[3, 6]);
        assert!(shard.remove(1));
        let router = Router::build([&shard]);
        assert_eq!(router.synopsis(0).graphs, 1);
        assert_eq!(router.synopsis(0).max_vertices, 3);
    }
}
