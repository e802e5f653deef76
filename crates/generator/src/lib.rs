//! # sqbench-generator
//!
//! Dataset and query-workload generators for the subgraph query processing
//! benchmark, reproducing the experimental setup of §4.2–4.3 of the VLDB
//! 2015 paper:
//!
//! * [`GraphGen`] — a reimplementation of the GraphGen synthetic dataset
//!   generator: the user chooses the number of graphs, the mean number of
//!   nodes per graph, the mean graph density and the number of distinct
//!   labels; individual graph sizes and densities are drawn from normal
//!   distributions around those means (std. dev. 5 nodes and 0.01 density,
//!   as in the paper), and all generated graphs are connected.
//! * [`real_like`] — simulators that synthesize datasets matching the
//!   published Table 1 characteristics of the four real datasets (AIDS,
//!   PDBS, PCM, PPI). The paper's real data files are not redistributable,
//!   so we reproduce their structural regimes instead (graph counts, sizes,
//!   densities, degrees, label counts, and the share of disconnected
//!   graphs); see DESIGN.md for the substitution rationale.
//! * [`QueryGen`] — the random-walk query workload generator of §4.3:
//!   queries are connected subgraphs of dataset graphs with a requested
//!   number of edges (4, 8, 16 or 32 in the paper).
//! * [`sweeps`] — the paper's "sane defaults" the scalability experiments
//!   vary one parameter at a time around, and its query sizes.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod graphgen;
pub mod query;
pub mod real_like;
pub mod sweeps;

pub use graphgen::{label_clustered, GraphGen, GraphGenConfig};
pub use query::{QueryGen, QueryWorkload};
pub use real_like::{RealDataset, RealDatasetSpec};
