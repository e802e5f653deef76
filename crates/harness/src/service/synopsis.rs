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

use sqbench_features::canonical::path_key;
use sqbench_features::paths::for_each_path;
use sqbench_features::Fingerprint;
use sqbench_graph::{Dataset, Graph, GraphSynopsis, ShardSynopsis};

/// Width of the per-shard routing fingerprints, in bits. A shard fingerprint
/// is the OR-fold of its member graphs' path fingerprints, so it saturates
/// faster than a single CT-Index graph fingerprint (4096 bits in the paper);
/// 2048 bits keeps the false-positive rate useful at a few hundred graphs
/// per shard while costing only 256 bytes per shard.
const ROUTE_FP_BITS: usize = 2048;

/// Maximum path length (in edges) hashed into routing fingerprints. Short
/// paths are cheap to enumerate at query time (the router pays this once per
/// query) and already separate label-content families well; longer paths
/// would sharpen shard refutation but make `route` itself slower.
const ROUTE_FP_MAX_PATH_EDGES: usize = 3;

/// Bloom probes per hashed path feature.
const ROUTE_FP_HASHES: usize = 2;

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
    /// [`RoutingMode::Synopsis`] bounds *plus* the shard's path-feature
    /// routing fingerprint: a shard is probed only when the bounds admit
    /// the query *and* the shard fingerprint covers the query's. Refutes
    /// label-compatible but structure-incompatible shards the bounds
    /// cannot see, at the cost of enumerating the query's short paths at
    /// plan time (~10x the bounds-only plan cost, still well under one
    /// index probe — the `micro_hotloops` routing axis A/Bs the two).
    SynopsisFingerprint,
}

impl RoutingMode {
    /// Short name used in logs, CSV descriptions and bench ids.
    pub fn name(&self) -> &'static str {
        match self {
            RoutingMode::Fanout => "fanout",
            RoutingMode::Synopsis => "routed",
            RoutingMode::SynopsisFingerprint => "routed-fp",
        }
    }
}

/// The routing planner: one [`ShardSynopsis`] and one routing
/// [`Fingerprint`] per shard, consulted before each wave. Building it costs
/// one pass over every shard's graphs; consulting it costs one
/// query-synopsis computation plus `O(shards)` admissibility checks per
/// query — orders of magnitude below a single index probe.
///
/// # Keeping it current
///
/// The routing tier is **exactly subtractable**: [`Router::absorb`] and its
/// inverse [`Router::retract`] each cost one graph's synopsis and short
/// paths, never a pass over the shard. The synopsis carries the
/// multiplicity of every bound's witnesses (see [`ShardSynopsis`]); the
/// fingerprint carries, per bit, the number of live graphs that set it. The
/// invariant, pinned by the `incremental_router_equals_rebuild` property: after any
/// interleaving of absorbs and retracts, every shard's synopsis and
/// fingerprint **equal** what [`Router::build`] computes from the shard's
/// live graphs — so the router under-admits never and over-admits exactly
/// as much as a rebuild would.
#[derive(Debug, Clone)]
pub struct Router {
    synopses: Vec<ShardSynopsis>,
    /// Per-shard OR-fold of the member graphs' path fingerprints. A query
    /// can only match inside shard `s` if `fingerprints[s]` covers the
    /// query's own path fingerprint: `q ⊆ g` implies every simple path of
    /// `q` occurs in `g`, so `g`'s fingerprint has every bit of `q`'s, and
    /// the shard OR-fold has every bit of `g`'s. Content refutation this
    /// buys is orthogonal to the bound checks in [`ShardSynopsis::admits`]
    /// — bounds refute on *counts*, fingerprints on *which* label
    /// sequences exist.
    fingerprints: Vec<Fingerprint>,
    /// Per shard, per fingerprint bit: how many live graphs set it. A bit
    /// of `fingerprints[s]` is set iff its count is non-zero. A graph
    /// contributes at most 1 per bit, so a count is bounded by the shard's
    /// graph count and needs no saturation rule; `ROUTE_FP_BITS` `u32`s
    /// (8 KB) per shard, nothing per graph.
    bit_counts: Vec<Vec<u32>>,
}

impl Router {
    /// Path fingerprint of a single graph, at the router's configuration.
    /// The empty graph enumerates no paths and produces the all-zero
    /// fingerprint.
    pub fn graph_fingerprint(g: &Graph) -> Fingerprint {
        let mut fp = Fingerprint::new(ROUTE_FP_BITS);
        for_each_path(g, ROUTE_FP_MAX_PATH_EDGES, |labels, _| {
            fp.insert_key(&path_key(labels), ROUTE_FP_HASHES);
        });
        fp
    }

    /// OR-fold of the path fingerprints of every live graph in `dataset` —
    /// the shard-level routing fingerprint by rescan. The write path never
    /// calls it; it is the oracle [`Router::retract`] is tested and benched
    /// against (with [`ShardSynopsis::of`]).
    pub fn shard_fingerprint(dataset: &Dataset) -> Fingerprint {
        let mut fp = Fingerprint::new(ROUTE_FP_BITS);
        for (_, g) in dataset.iter_live() {
            fp.union_with(&Self::graph_fingerprint(g));
        }
        fp
    }

    /// Builds the router over the shards' dataset slices, in shard order,
    /// by absorbing every live graph.
    pub fn build<'a>(shards: impl IntoIterator<Item = &'a Dataset>) -> Self {
        let mut router = Router {
            synopses: Vec::new(),
            fingerprints: Vec::new(),
            bit_counts: Vec::new(),
        };
        for (shard, dataset) in shards.into_iter().enumerate() {
            router.synopses.push(ShardSynopsis::default());
            router.fingerprints.push(Fingerprint::new(ROUTE_FP_BITS));
            router.bit_counts.push(vec![0; ROUTE_FP_BITS]);
            for (_, g) in dataset.iter_live() {
                router.absorb(shard, g, &GraphSynopsis::of(g));
            }
        }
        router
    }

    /// Number of shards the router covers.
    pub fn shard_count(&self) -> usize {
        self.synopses.len()
    }

    /// The synopsis of one shard.
    pub fn synopsis(&self, shard: usize) -> &ShardSynopsis {
        &self.synopses[shard]
    }

    /// The routing fingerprint of one shard (for tests and diagnostics).
    pub fn fingerprint(&self, shard: usize) -> &Fingerprint {
        &self.fingerprints[shard]
    }

    /// Widens one shard's synopsis and fingerprint in place with a newly
    /// inserted graph. Widening preserves the no-false-negative contract
    /// trivially: every bound only grows and the fingerprint only gains
    /// bits, so previously admitted queries stay admitted and the new
    /// graph's own subgraphs are now dominated too.
    pub fn absorb(&mut self, shard: usize, graph: &Graph, synopsis: &GraphSynopsis) {
        self.synopses[shard].absorb(synopsis);
        let fingerprint = Self::graph_fingerprint(graph);
        self.fingerprints[shard].union_with(&fingerprint);
        for bit in fingerprint.ones() {
            self.bit_counts[shard][bit] += 1;
        }
    }

    /// The inverse of [`Router::absorb`]: takes a graph the shard is losing
    /// back out of its synopsis and fingerprint, at the cost of that one
    /// graph's paths. A bound or a bit goes only when the graph was its
    /// last witness, so what is left still dominates every live graph —
    /// and is exactly what a rebuild over them would produce.
    ///
    /// # Panics
    ///
    /// If `graph` was never absorbed into `shard`.
    pub fn retract(&mut self, shard: usize, graph: &Graph, synopsis: &GraphSynopsis) {
        self.synopses[shard].retract(synopsis);
        for bit in Self::graph_fingerprint(graph).ones() {
            let count = &mut self.bit_counts[shard][bit];
            *count = count
                .checked_sub(1)
                .expect("retracted a graph the shard never absorbed");
            if *count == 0 {
                self.fingerprints[shard].clear(bit);
            }
        }
    }

    /// Estimated heap bytes of all shard synopses, routing fingerprints and
    /// per-bit counts — the memory the routing tier adds on top of the
    /// per-shard indexes. Per shard, not per graph.
    pub fn memory_bytes(&self) -> usize {
        self.synopses
            .iter()
            .map(ShardSynopsis::memory_bytes)
            .sum::<usize>()
            + self
                .fingerprints
                .iter()
                .map(Fingerprint::memory_bytes)
                .sum::<usize>()
            + self
                .bit_counts
                .iter()
                .map(|counts| counts.capacity() * std::mem::size_of::<u32>())
                .sum::<usize>()
    }

    /// Routes one query through the bound checks: `mask[s]` is `true` iff
    /// shard `s` must be probed under [`RoutingMode::Synopsis`].
    pub fn route(&self, query: &Graph) -> Vec<bool> {
        let q = GraphSynopsis::of(query);
        self.synopses.iter().map(|s| s.admits(&q)).collect()
    }

    /// Routes one query through bounds *and* fingerprint
    /// ([`RoutingMode::SynopsisFingerprint`]): a shard is probed only when
    /// its bound synopsis admits the query and its routing fingerprint
    /// covers the query's — both checks are sound necessary conditions, so
    /// their conjunction is too, and every shard [`Router::route`] skips is
    /// skipped here as well (the conjunction only prunes more).
    pub fn route_fingerprint(&self, query: &Graph) -> Vec<bool> {
        let q = GraphSynopsis::of(query);
        let q_fp = Self::graph_fingerprint(query);
        self.synopses
            .iter()
            .zip(self.fingerprints.iter())
            .map(|(s, fp)| s.admits(&q) && fp.covers(&q_fp))
            .collect()
    }

    /// Plans a whole wave under `mode`: for each shard, the (ascending)
    /// wave indices of the queries it must serve. Under
    /// [`RoutingMode::Fanout`] every shard serves every query; under
    /// [`RoutingMode::Synopsis`] each query's synopsis is computed once and
    /// bound-tested against every shard; [`RoutingMode::SynopsisFingerprint`]
    /// additionally computes each query's path fingerprint once and demands
    /// shard-fingerprint coverage.
    pub fn plan(&self, queries: &[&Graph], mode: RoutingMode) -> Vec<Vec<usize>> {
        if mode == RoutingMode::Fanout {
            return vec![(0..queries.len()).collect(); self.synopses.len()];
        }
        let query_synopses: Vec<GraphSynopsis> =
            queries.iter().map(|q| GraphSynopsis::of(q)).collect();
        // Only the fingerprint tier pays for enumerating the queries' paths.
        let query_fps: Option<Vec<Fingerprint>> = (mode == RoutingMode::SynopsisFingerprint)
            .then(|| queries.iter().map(|q| Self::graph_fingerprint(q)).collect());
        self.synopses
            .iter()
            .zip(&self.fingerprints)
            .map(|(shard, shard_fp)| {
                (0..queries.len())
                    .filter(|&qi| {
                        shard.admits(&query_synopses[qi])
                            && query_fps
                                .as_ref()
                                .is_none_or(|fps| shard_fp.covers(&fps[qi]))
                    })
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
        assert!(router.memory_bytes() > 0);
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
        for mode in [
            RoutingMode::Fanout,
            RoutingMode::Synopsis,
            RoutingMode::SynopsisFingerprint,
        ] {
            assert_eq!(router.plan(&[], mode), vec![Vec::<usize>::new(); 2]);
        }
        assert_eq!(RoutingMode::Fanout.name(), "fanout");
        assert_eq!(RoutingMode::Synopsis.name(), "routed");
        assert_eq!(RoutingMode::SynopsisFingerprint.name(), "routed-fp");
        assert_eq!(RoutingMode::default(), RoutingMode::Fanout);
    }

    #[test]
    fn fingerprint_refutes_label_compatible_decoy_shards() {
        // The decoy shard carries the chain's label inventory and (7,7)
        // edge pairs as disconnected single edges, plus an out-of-palette
        // hub that satisfies the degree histogram — so every count bound
        // admits the chain query, but no 7-7-7 path exists and the path
        // fingerprint refutes it.
        let chain = mono_path(7, 4);
        let decoy = GraphBuilder::new("decoy")
            .vertices(&[7, 7, 7, 7, 7, 7, 9])
            .edges(&[(0, 1), (2, 3), (4, 5), (6, 0), (6, 2), (6, 4)])
            .build()
            .unwrap();
        let shards = [
            Dataset::from_graphs("real", vec![chain.clone()]),
            Dataset::from_graphs("decoy", vec![decoy]),
        ];
        let router = Router::build(shards.iter());
        let query = mono_path(7, 3);
        // Bounds alone admit both shards; the fingerprint drops the decoy.
        assert_eq!(router.route(&query), vec![true, true]);
        assert_eq!(router.route_fingerprint(&query), vec![true, false]);
        let queries = [&query];
        assert_eq!(
            router.plan(&queries, RoutingMode::Synopsis),
            vec![vec![0], vec![0]]
        );
        assert_eq!(
            router.plan(&queries, RoutingMode::SynopsisFingerprint),
            vec![vec![0], vec![]]
        );
        // The real shard's fingerprint covers the query's (soundness).
        assert!(router
            .fingerprint(0)
            .covers(&Router::graph_fingerprint(&query)));
    }

    #[test]
    fn retract_clears_only_the_bits_the_victim_alone_witnessed() {
        // Two graphs share the 7-7 paths; only the chain has a 7-7-7-7 one
        // and only the decoy anything with a 9 in it.
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
        let full = router.fingerprint(0).clone();
        assert_eq!(&full, &Router::shard_fingerprint(&shard));

        // The chain leaves: its long paths' bits go, the shared 7-7 bits
        // stay (the pair still witnesses them), and the result is exactly
        // the rescan over what is left — tombstone and all.
        router.retract(0, &chain, &GraphSynopsis::of(&chain));
        assert!(shard.remove(0));
        assert!(router.fingerprint(0).count_ones() < full.count_ones());
        assert!(router
            .fingerprint(0)
            .covers(&Router::graph_fingerprint(&pair)));
        assert!(!router
            .fingerprint(0)
            .covers(&Router::graph_fingerprint(&chain)));
        assert_eq!(router.fingerprint(0), &Router::shard_fingerprint(&shard));
        assert_eq!(router.synopsis(0), &ShardSynopsis::of(&shard));
        assert_eq!(router.synopsis(0).graphs, 2, "the dead slot is no graph");
        assert_eq!(router.route(&mono_path(7, 3)), vec![false]);
        assert_eq!(router.route(&pair), vec![true]);

        // Absorbing it again restores every bit; retracting everything
        // returns the empty router state.
        router.absorb(0, &chain, &GraphSynopsis::of(&chain));
        assert_eq!(router.fingerprint(0), &full);
        for g in &graphs {
            router.retract(0, g, &GraphSynopsis::of(g));
        }
        assert_eq!(router.synopsis(0), &ShardSynopsis::default());
        assert_eq!(router.fingerprint(0).count_ones(), 0);
    }

    #[test]
    fn build_skips_tombstoned_slots() {
        let mut shard = shard_of(0, &[3, 6]);
        assert!(shard.remove(1));
        let router = Router::build([&shard]);
        assert_eq!(router.synopsis(0).graphs, 1);
        assert_eq!(router.synopsis(0).max_vertices, 3);
        assert_eq!(
            router.fingerprint(0),
            &Router::graph_fingerprint(&mono_path(0, 3))
        );
    }
}
