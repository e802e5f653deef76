//! The frequent miner's exact output and enumeration work on seeded sets.
//!
//! gIndex and Tree+Δ index what `FrequentMiner::mine` keeps, and every
//! answer check downstream is judged against exhaustive VF2, so a miner that
//! kept a different (still sound) feature set would pass them all. This
//! fixture pins the mined set instead: an FNV-1a digest of every retained
//! (key, support) pair, recorded while gIndex still grew its fragments with
//! a separate dedup enumerator. Beside it, the number of fragments the one
//! grower visits over each set pins the enumeration's exact work: each
//! connected fragment once, no more.

use sqbench_features::mining::MiningConfig;
use sqbench_features::subgraphs::for_each_fragment;
use sqbench_features::FrequentMiner;
use sqbench_generator::{GraphGen, GraphGenConfig, RealDataset};
use sqbench_graph::Dataset;

/// FNV-1a over a byte stream.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

/// Mines the dataset and returns the digest of every retained (key,
/// support) pair, the number of retained features, and the number of
/// fragments the grower visits over the whole dataset.
fn mined(dataset: &Dataset, config: MiningConfig) -> (u64, usize, usize) {
    let mut visits = 0;
    for (_, g) in dataset.iter() {
        for_each_fragment(g, config.max_feature_edges, config.kind, |_| visits += 1);
    }
    let features = FrequentMiner::new(config).mine(dataset);
    let mut digest = Digest::new();
    for (key, feature) in &features {
        digest.bytes(key.as_str().as_bytes());
        digest.word(feature.supporting_graphs.len() as u64);
        for &gid in &feature.supporting_graphs {
            digest.word(gid as u64);
        }
    }
    (digest.0, features.len(), visits)
}

/// `sparse_screen`'s shape at a debug-build size.
fn aids_like() -> Dataset {
    let aids = RealDataset::Aids.spec().graph_count as f64;
    RealDataset::Aids.generate_with(300.0 / aids, 1.0, 36)
}

/// A small dense two-label set: `dense_verify`'s regime at half the graph
/// size.
fn dense_two_label() -> Dataset {
    GraphGen::new(
        GraphGenConfig::default()
            .with_graph_count(60)
            .with_avg_nodes(12)
            .with_avg_density(0.2)
            .with_label_count(2)
            .with_seed(36),
    )
    .generate()
}

#[test]
fn gindex_default_mining_is_pinned() {
    assert_eq!(
        mined(&aids_like(), MiningConfig::gindex(3)),
        (0x1099_0bb2_d64e_96b9, 1193, 110_989)
    );
    assert_eq!(
        mined(&dense_two_label(), MiningConfig::gindex(3)),
        (0xb780_f31a_9990_886b, 17, 10_382)
    );
}

#[test]
fn treedelta_default_mining_is_pinned() {
    assert_eq!(
        mined(&aids_like(), MiningConfig::tree_delta(3)),
        (0x49f3_3511_b2d5_77c7, 1193, 110_895)
    );
    assert_eq!(
        mined(&dense_two_label(), MiningConfig::tree_delta(3)),
        (0xe9e3_cb6a_5a3c_62f1, 27, 10_279)
    );
}

#[test]
fn gindex_five_edge_mining_on_dense_graphs_is_pinned() {
    assert_eq!(
        mined(&dense_two_label(), MiningConfig::gindex(5)),
        (0xeb83_0b47_1bae_57c8, 124, 139_155)
    );
}
