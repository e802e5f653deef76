//! A GraphGen-style synthetic dataset generator.
//!
//! §4.2 of the paper describes the generation procedure of the GraphGen tool
//! used for all synthetic sweeps:
//!
//! 1. the user specifies the number of distinct labels, the number of graphs,
//!    the average graph density and average graph size;
//! 2. GraphGen forms an alphabet of distinct edges consisting of all possible
//!    pairs of node labels;
//! 3. for every new graph it draws a size and density from normal
//!    distributions around the requested averages (standard deviation 5 and
//!    0.01 respectively) and then repeatedly adds random edges from the
//!    alphabet until the requested size/density is reached.
//!
//! This module reproduces that behaviour with one practical refinement: the
//! paper notes that *all* graphs in the synthetic datasets are connected, so
//! edge insertion starts from a random spanning tree over the sampled
//! vertices and then adds uniformly random extra edges until the target edge
//! count implied by the sampled density is met. Vertex labels are drawn
//! uniformly from the label alphabet, which makes every label pair (i.e.
//! every "edge letter" of GraphGen's alphabet) equally likely, as in the
//! original tool.

use crate::sweeps::{
    normal_sample, SANE_DEFAULT_DENSITY, SANE_DEFAULT_GRAPHS, SANE_DEFAULT_LABELS,
    SANE_DEFAULT_NODES,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use sqbench_graph::{Dataset, Graph, Label};

/// Configuration for [`GraphGen`]. The defaults are the paper's "sane
/// defaults": 200 nodes per graph, density 0.025, 20 distinct labels and
/// 1000 graphs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphGenConfig {
    /// Number of graphs to generate.
    pub graph_count: usize,
    /// Mean number of nodes per graph.
    pub avg_nodes: usize,
    /// Standard deviation of the per-graph node count (paper: 5).
    pub stddev_nodes: f64,
    /// Mean graph density (Definition 4).
    pub avg_density: f64,
    /// Standard deviation of the per-graph density (paper: 0.01).
    pub stddev_density: f64,
    /// Number of distinct vertex labels in the dataset.
    pub label_count: u32,
    /// Seed for the deterministic random number generator.
    pub seed: u64,
}

impl Default for GraphGenConfig {
    fn default() -> Self {
        GraphGenConfig {
            graph_count: SANE_DEFAULT_GRAPHS,
            avg_nodes: SANE_DEFAULT_NODES,
            stddev_nodes: 5.0,
            avg_density: SANE_DEFAULT_DENSITY,
            stddev_density: 0.01,
            label_count: SANE_DEFAULT_LABELS,
            seed: 0x5eed_0001,
        }
    }
}

impl GraphGenConfig {
    /// The paper's "sane defaults" scaled down to a quick-running size,
    /// used by tests and examples: 100 graphs of 50 nodes.
    pub fn small() -> Self {
        GraphGenConfig {
            graph_count: 100,
            avg_nodes: 50,
            ..Default::default()
        }
    }

    /// Builder-style setter for the number of graphs.
    pub fn with_graph_count(mut self, graph_count: usize) -> Self {
        self.graph_count = graph_count;
        self
    }

    /// Builder-style setter for the mean number of nodes per graph.
    pub fn with_avg_nodes(mut self, avg_nodes: usize) -> Self {
        self.avg_nodes = avg_nodes;
        self
    }

    /// Builder-style setter for the mean density.
    pub fn with_avg_density(mut self, avg_density: f64) -> Self {
        self.avg_density = avg_density;
        self
    }

    /// Builder-style setter for the label alphabet size.
    pub fn with_label_count(mut self, label_count: u32) -> Self {
        self.label_count = label_count;
        self
    }

    /// Builder-style setter for the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// A short human-readable tag describing the configuration, used in
    /// dataset names and experiment reports.
    pub fn tag(&self) -> String {
        format!(
            "synth-n{}-d{:.3}-l{}-g{}",
            self.avg_nodes, self.avg_density, self.label_count, self.graph_count
        )
    }
}

/// The GraphGen-style synthetic dataset generator.
#[derive(Debug, Clone)]
pub struct GraphGen {
    config: GraphGenConfig,
}

impl GraphGen {
    /// Creates a generator for the given configuration.
    pub fn new(config: GraphGenConfig) -> Self {
        GraphGen { config }
    }

    /// The configuration this generator was created with.
    pub fn config(&self) -> &GraphGenConfig {
        &self.config
    }

    /// Generates the full dataset. The output is deterministic for a given
    /// configuration (including the seed).
    pub fn generate(&self) -> Dataset {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut ds = Dataset::new(self.config.tag());
        for i in 0..self.config.graph_count {
            ds.push(self.generate_graph(&mut rng, i));
        }
        ds
    }

    /// Generates a single connected graph following the §4.2 procedure.
    fn generate_graph(&self, rng: &mut StdRng, index: usize) -> Graph {
        let cfg = &self.config;
        // Sample per-graph node count and density from normal distributions
        // around the configured means (paper: stddev 5 nodes, 0.01 density).
        let n = normal_sample(rng, cfg.avg_nodes as f64, cfg.stddev_nodes)
            .round()
            .max(2.0) as usize;
        let density = normal_sample(rng, cfg.avg_density, cfg.stddev_density).clamp(0.0, 1.0);

        let max_edges = n * (n - 1) / 2;
        // Density -> edge target; a connected graph needs at least n-1 edges.
        let target_edges = ((density * max_edges as f64).round() as usize)
            .max(n - 1)
            .min(max_edges);

        let mut g = Graph::with_capacity(format!("synthetic-{index}"), n);
        for _ in 0..n {
            g.add_vertex(rng.gen_range(0..cfg.label_count) as Label);
        }

        // Random spanning tree: attach each new vertex to a uniformly random
        // earlier vertex. This guarantees connectivity (all synthetic graphs
        // in the paper are connected).
        for v in 1..n {
            let u = rng.gen_range(0..v);
            g.add_edge(u, v)
                .expect("spanning tree edge is always valid");
        }

        // Add uniformly random extra edges until the density target is met.
        // Mirrors GraphGen's "pick a random edge from the alphabet" loop; we
        // bound the number of attempts so near-complete graphs terminate.
        let mut attempts = 0usize;
        let max_attempts = 20 * max_edges.max(1);
        while g.edge_count() < target_edges && attempts < max_attempts {
            attempts += 1;
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u == v {
                continue;
            }
            let _ = g.add_edge_if_absent(u, v);
        }
        g
    }
}

/// Generates a dataset of `families` **label-disjoint graph families**,
/// interleaved so that graph `i` belongs to family `i % families`.
///
/// Family `f` is generated with the base configuration (graph counts split
/// as evenly as possible, seeds decorrelated per family) and then shifted
/// into its own label range `[f * label_count, (f + 1) * label_count)`, so
/// no label — and no edge label pair — ever crosses families. This is the
/// adversarial skew the shard-routing layer thrives on: round-robin
/// partitioning over `N` shards sends family `f` to shard(s)
/// `{s : s ≡ f (mod families)}` whenever `families` and `N` divide one
/// another, so a query drawn from one family (as random-walk queries are)
/// can only ever match inside that family's shards and a sound synopsis
/// router skips all others.
pub fn label_clustered(config: &GraphGenConfig, families: u32) -> Dataset {
    let families = families.max(1);
    let mut family_graphs: Vec<std::vec::IntoIter<Graph>> = (0..families)
        .map(|f| {
            let count = config.graph_count / families as usize
                + usize::from((f as usize) < config.graph_count % families as usize);
            let sub = GraphGen::new(
                config
                    .clone()
                    .with_graph_count(count)
                    // Decorrelate families: same shape parameters, fresh
                    // stream per family, still deterministic overall.
                    .with_seed(config.seed.wrapping_add(0x9e37_79b9 * (f as u64 + 1))),
            )
            .generate();
            let offset = f * config.label_count.max(1);
            let graphs: Vec<Graph> = sub
                .into_iter()
                .map(|mut g| {
                    g.map_labels(|label| label + offset);
                    g.set_name(format!("family{f}-{}", g.name()));
                    g
                })
                .collect();
            graphs.into_iter()
        })
        .collect();
    let mut ds = Dataset::new(format!("{}-fam{families}", config.tag()));
    for i in 0..config.graph_count {
        let g = family_graphs[i % families as usize]
            .next()
            .expect("per-family counts sum to graph_count in interleave order");
        ds.push(g);
    }
    ds
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqbench_graph::algo;

    #[test]
    fn default_config_matches_paper_sane_defaults() {
        let cfg = GraphGenConfig::default();
        assert_eq!(cfg.avg_nodes, 200);
        assert_eq!(cfg.graph_count, 1000);
        assert_eq!(cfg.label_count, 20);
        assert!((cfg.avg_density - 0.025).abs() < 1e-12);
    }

    #[test]
    fn generates_requested_number_of_graphs() {
        let cfg = GraphGenConfig::small().with_graph_count(25).with_seed(1);
        let ds = GraphGen::new(cfg).generate();
        assert_eq!(ds.len(), 25);
    }

    #[test]
    fn all_generated_graphs_are_connected() {
        let cfg = GraphGenConfig::small().with_graph_count(30).with_seed(2);
        let ds = GraphGen::new(cfg).generate();
        for (_, g) in ds.iter() {
            assert!(algo::is_connected(g), "graph {} disconnected", g.name());
        }
    }

    #[test]
    fn average_node_count_tracks_configuration() {
        let cfg = GraphGenConfig::default()
            .with_graph_count(200)
            .with_avg_nodes(80)
            .with_seed(3);
        let ds = GraphGen::new(cfg).generate();
        let avg: f64 = ds
            .graphs()
            .iter()
            .map(|g| g.vertex_count() as f64)
            .sum::<f64>()
            / ds.len() as f64;
        assert!((avg - 80.0).abs() < 3.0, "avg nodes {avg} too far from 80");
    }

    #[test]
    fn average_density_tracks_configuration() {
        let cfg = GraphGenConfig::default()
            .with_graph_count(150)
            .with_avg_nodes(60)
            .with_avg_density(0.08)
            .with_seed(4);
        let ds = GraphGen::new(cfg).generate();
        let avg: f64 = ds.graphs().iter().map(|g| g.density()).sum::<f64>() / ds.len() as f64;
        assert!(
            (avg - 0.08).abs() < 0.02,
            "avg density {avg} too far from 0.08"
        );
    }

    #[test]
    fn labels_stay_within_alphabet() {
        let cfg = GraphGenConfig::small()
            .with_graph_count(10)
            .with_label_count(7)
            .with_seed(5);
        let ds = GraphGen::new(cfg).generate();
        for (_, g) in ds.iter() {
            assert!(g.labels().iter().all(|&l| l < 7));
        }
        assert!(ds.distinct_label_count() <= 7);
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let cfg = GraphGenConfig::small().with_graph_count(5).with_seed(42);
        let a = GraphGen::new(cfg.clone()).generate();
        let b = GraphGen::new(cfg).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = GraphGen::new(GraphGenConfig::small().with_graph_count(5).with_seed(1)).generate();
        let b = GraphGen::new(GraphGenConfig::small().with_graph_count(5).with_seed(2)).generate();
        assert_ne!(a, b);
    }

    #[test]
    fn dense_configuration_produces_mostly_cyclic_graphs() {
        // The paper notes >95% of synthetic graphs contain cycles for the
        // default parameters (the only exceptions being 50-node graphs and
        // density 0.005); verify the same holds for our generator.
        let cfg = GraphGenConfig::default()
            .with_graph_count(100)
            .with_avg_nodes(100)
            .with_avg_density(0.05)
            .with_seed(6);
        let ds = GraphGen::new(cfg).generate();
        let cyclic = ds.graphs().iter().filter(|g| algo::has_cycle(g)).count();
        assert!(cyclic >= 95, "only {cyclic}/100 graphs contain cycles");
    }

    #[test]
    fn label_clustered_families_are_label_disjoint_and_interleaved() {
        let cfg = GraphGenConfig::small()
            .with_graph_count(23)
            .with_label_count(6)
            .with_seed(9);
        let ds = label_clustered(&cfg, 4);
        assert_eq!(ds.len(), 23);
        for (id, g) in ds.iter() {
            let family = (id % 4) as u32;
            let range = (family * 6)..((family + 1) * 6);
            assert!(
                g.labels().iter().all(|l| range.contains(l)),
                "graph {id} leaked outside family {family}'s label range"
            );
            assert!(algo::is_connected(g));
        }
        // Deterministic for a fixed configuration.
        assert_eq!(label_clustered(&cfg, 4), label_clustered(&cfg, 4));
        // One family degenerates to a plain (relabeled-by-identity) dataset.
        assert_eq!(label_clustered(&cfg, 1).len(), 23);
    }

    #[test]
    fn tag_encodes_parameters() {
        let tag = GraphGenConfig::default().tag();
        assert!(tag.contains("n200"));
        assert!(tag.contains("l20"));
        assert!(tag.contains("g1000"));
    }
}
