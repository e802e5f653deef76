//! # sqbench-features
//!
//! Feature-extraction machinery shared by the six indexing methods evaluated
//! in the VLDB 2015 paper. A *feature* is a small substructure of an indexed
//! graph — a path, tree, simple cycle, or general connected subgraph — whose
//! presence in dataset graphs is recorded by the index and matched against
//! the features of incoming query graphs during filtering.
//!
//! The crate provides:
//!
//! * [`canonical`] — canonical labels for paths, trees (AHU encoding), simple
//!   cycles, and arbitrary small connected graphs (ordered-permutation
//!   canonical form). Two isomorphic features always receive the same
//!   canonical key, which is what makes cross-graph feature matching sound.
//! * [`paths`] — exhaustive enumeration of simple paths up to a maximum
//!   length, with per-graph occurrence counts and start-vertex location
//!   information (used by GraphGrepSX and Grapes).
//! * [`trees`] — subtrees up to a maximum number of edges, grouped by
//!   canonical key (used by CT-Index and Tree+Δ).
//! * [`cycles`] — exhaustive enumeration of simple cycles up to a maximum
//!   length (used by CT-Index and Tree+Δ's Δ features).
//! * [`subgraphs`] — the one fragment grower: every connected subgraph, or
//!   every subtree, up to a maximum number of edges, each reached once, and
//!   keyed once per grown shape (used by gIndex, Tree+Δ and CT-Index).
//! * [`mining`] — frequent-feature mining with support-ratio and
//!   discriminative-ratio pruning (used by gIndex and Tree+Δ).
//! * [`fingerprint`] — fixed-width bit-array fingerprints hashed from
//!   canonical keys (used by CT-Index).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod canonical;
pub mod cycles;
pub mod fingerprint;
pub mod mining;
pub mod paths;
pub mod subgraphs;
pub mod trees;

pub use canonical::FeatureKey;
pub use fingerprint::Fingerprint;
pub use mining::{FrequentFeature, FrequentMiner, MiningConfig};
pub use paths::{PathOccurrences, PathSet};
