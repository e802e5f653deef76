//! # sqbench-iso
//!
//! Subgraph isomorphism testing — the *verification* stage shared by every
//! filter-and-verify method in the VLDB 2015 paper.
//!
//! One matcher is provided: [`vf2`], a VF2-style backtracking matcher
//! (Cordella et al., TPAMI 2004), the verifier of all seven methods. It
//! searches for an injective mapping from query vertices to target vertices
//! that preserves labels and query edges (non-induced subgraph isomorphism,
//! Definition 3 of the paper), and by default stops at the first match — the
//! paper explicitly patched Grapes to do the same so all systems were
//! compared under first-match semantics. The paper gives CT-Index a modified
//! VF2 and Grapes component-restricted matching; here both use this one
//! core, because each specialisation measured slower than it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod vf2;

pub use vf2::{
    count_embeddings, find_first_embedding, has_subgraph_embedding, MatchState, MatchStats,
    TunedMatcher, Vf2Matcher,
};
