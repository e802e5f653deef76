//! # sqbench-iso
//!
//! Subgraph isomorphism testing — the *verification* stage shared by every
//! filter-and-verify method in the VLDB 2015 paper.
//!
//! Two matchers are provided:
//!
//! * [`vf2`] — a VF2-style backtracking matcher (Cordella et al., TPAMI
//!   2004), the verifier used by Grapes, GraphGrepSX, gIndex, Tree+Δ and
//!   gCode in the paper. It searches for an injective mapping from query
//!   vertices to target vertices that preserves labels and query edges
//!   (non-induced subgraph isomorphism, Definition 3 of the paper), and by
//!   default stops at the first match — the paper explicitly patched Grapes
//!   to do the same so all systems were compared under first-match
//!   semantics.
//! * [`tuned`] — the CT-Index-style verifier: the same search augmented
//!   with global ordering heuristics (rarest-label-first, high-degree-first)
//!   and a neighborhood-degree look-ahead, which is what lets CT-Index trade
//!   filtering power for verification speed.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod tuned;
pub mod vf2;

pub use tuned::TunedMatcher;
pub use vf2::{
    count_embeddings, find_first_embedding, has_subgraph_embedding, MatchState, MatchStats,
    Vf2Matcher,
};
