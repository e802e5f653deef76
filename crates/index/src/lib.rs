//! # sqbench-index
//!
//! The six indexed subgraph query processing methods evaluated in the VLDB
//! 2015 paper, implemented behind a common [`GraphIndex`] trait:
//!
//! | Method | Features | Extraction | Index structure | Location info | Candidate routine ([`GraphIndex::candidates_into`]) |
//! |---|---|---|---|---|---|
//! | [`grapes::GrapesIndex`] | paths | exhaustive | trie | yes (start vertices) | the GGSX store's |
//! | [`ggsx::GgsxIndex`] (GraphGrepSX) | paths | exhaustive | suffix-tree-style trie | no (counts only) | the query's trie walk, then the shared fold over node payloads |
//! | [`ctindex::CtIndex`] | trees + cycles | exhaustive | hashed bit fingerprints | no | direct id-ordered scan, bits set in place |
//! | [`gindex::GIndex`] | subgraphs | frequent mining | feature map (prefix-tree order) | no | the shared fold over mined supports |
//! | [`treedelta::TreeDeltaIndex`] | trees (+ on-demand cycles) | frequent mining | hash map | no | the gIndex store's over trees, then the fold over Δ supports |
//! | [`gcode::GCodeIndex`] | paths (encoded) | exhaustive | spectral vertex/graph signatures | no | direct id-ordered scan, bits set in place |
//! | [`scan::ScanBaseline`] (baseline) | — | — | none | no | arena reset to the full set |
//!
//! All methods follow the same three stages (index construction, filtering,
//! verification); the trait captures that shape so the experiment harness can
//! drive any of them interchangeably and measure indexing time, index size,
//! query time and false positive ratio — the four metrics reported in the
//! paper.
//!
//! The filtering stage of every intersection-based method is one routine in
//! [`candidates`]: the method describes its query's postings, and the shared
//! rarest-first fold narrows one dense [`candidates::CandidateSet`] in place
//! over [`candidates::ArenaFold`]. The entry point is
//! [`GraphIndex::filter_into`], which narrows a **caller-owned** arena set —
//! a query service hands each worker's reusable arena to it, so serving a
//! query allocates no candidate `Vec` and no fresh bitset. CT-Index and gCode
//! scan per-graph structures in id order and have no intersection stage;
//! they set the matching bits directly.
//!
//! ## The borrowed-set filter contract
//!
//! `filter_into(&self, query, out)` is provided by the trait: the method's
//! [`GraphIndex::candidates_into`], then the tombstone mask. The candidate
//! routine must:
//!
//! 1. reset `out` to this index's [`GraphIndex::universe`] (arena sets are
//!    reused across queries *and across indexes/datasets*, so stale bits and
//!    a stale universe must both be overwritten — use
//!    [`candidates::CandidateSet::reset_empty`] /
//!    [`candidates::CandidateSet::reset_full`] or
//!    [`candidates::ArenaFold`], which do this);
//! 2. leave exactly the filtering-stage candidates set — a dirty arena and
//!    a fresh one end bit-identical, and equal to the sorted-`Vec`
//!    `filter_reference` oracle where a method keeps one;
//! 3. allocate nothing proportional to the candidate count.
//!
//! ## Cross-query feature caching
//!
//! [`GraphIndex::filter_into_cached`] is the cache-aware twin of
//! `filter_into`: a serving layer may hand it a [`fcache::FilterCacheCtx`]
//! over a shared [`fcache::FeatureCacheStore`], and the posting-fold
//! methods (Grapes, GGSX, gIndex, Tree+Δ) then fold hot per-feature
//! bitsets via [`candidates::ArenaFold::apply_set`] instead of re-walking
//! their trie payloads and support lists. Both entry points are provided and
//! call the same candidate routine; the cache is an optional argument to it,
//! not a second implementation, and cached and uncached filtering produce
//! bit-identical candidate sets. Methods whose filters are direct id-ordered
//! scans (CT-Index, gCode, the scan baseline) have no per-feature posting
//! lists to cache and ignore the argument.
//!
//! ## Online ingest
//!
//! Every index is mutable through [`GraphIndex::insert`] /
//! [`GraphIndex::remove`], mirroring the mutation surface of
//! [`sqbench_graph::Dataset`] (dense stable ids: insert appends the next
//! id, remove tombstones a slot). That lifecycle is written once, as
//! provided methods over the index's [`candidates::IdSpace`]; a method
//! supplies only its payload hooks. [`GraphIndex::append`] extends the
//! payloads incrementally — trie/posting appends in the two stores the path
//! and mined-feature methods share (GGSX's trie under Grapes, gIndex's
//! supports under Tree+Δ), per-graph fingerprint/signature pushes for the
//! scan-shaped ones. Removals are two-phase: the [`candidates::Tombstones`]
//! mask closes every `filter_into` immediately, a per-graph slot is given
//! back at once ([`GraphIndex::reclaim_slot`]), and posting payloads are
//! purged lazily ([`GraphIndex::purge_dead`]) once the mask passes
//! [`candidates::Tombstones::should_compact`]. The answer contract is
//! exact-by-verification: a mutated index may grow a *different* (still
//! sound) candidate set than a from-scratch rebuild — gIndex keeps its
//! mined feature set frozen, Tree+Δ keeps learned Δs — but verified
//! answers are always identical.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod candidates;
pub mod config;
pub mod ctindex;
pub mod fcache;
pub mod gcode;
pub mod ggsx;
pub mod gindex;
pub mod grapes;
pub mod path_trie;
pub mod scan;
pub mod treedelta;

use sqbench_graph::{Dataset, Graph, GraphId};
use sqbench_iso::{MatchState, Vf2Matcher};

pub use candidates::{ArenaFold, CandidateSet, IdSpace, Tombstones};
pub use config::{
    CtIndexConfig, GCodeConfig, GIndexConfig, GgsxConfig, GrapesConfig, MethodConfig,
    TreeDeltaConfig,
};
pub use fcache::{FeatureCacheStore, FilterCacheCtx};

/// Identifies one of the six competing methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MethodKind {
    /// Grapes (Giugno et al., 2013): exhaustive paths + location info, parallel build.
    Grapes,
    /// GraphGrepSX (Bonnici et al., 2010): exhaustive paths in a suffix tree.
    Ggsx,
    /// CT-Index (Klein et al., 2011): tree/cycle fingerprints.
    CtIndex,
    /// gIndex (Yan et al., 2004): frequent + discriminative subgraphs.
    GIndex,
    /// Tree+Δ (Zhao et al., 2007): frequent trees plus on-demand cycle features.
    TreeDelta,
    /// gCode (Zou et al., 2008): spectral vertex/graph signatures.
    GCode,
    /// Index-less sequential scan — the "naive method" baseline of the
    /// paper's introduction. Not one of the six compared methods and not
    /// part of [`MethodKind::ALL`]; available for ablations.
    Scan,
}

impl MethodKind {
    /// The six compared methods, in the order the paper lists them in its
    /// figures (the scan baseline is deliberately excluded).
    pub const ALL: [MethodKind; 6] = [
        MethodKind::Grapes,
        MethodKind::Ggsx,
        MethodKind::CtIndex,
        MethodKind::GIndex,
        MethodKind::TreeDelta,
        MethodKind::GCode,
    ];

    /// Human-readable method name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            MethodKind::Grapes => "Grapes",
            MethodKind::Ggsx => "GGSX",
            MethodKind::CtIndex => "CT-Index",
            MethodKind::GIndex => "gIndex",
            MethodKind::TreeDelta => "Tree+Delta",
            MethodKind::GCode => "gCode",
            MethodKind::Scan => "Scan",
        }
    }
}

/// Outcome of processing one query: the candidate set produced by the
/// filtering stage and the verified answer set. `answers ⊆ candidates`
/// always holds; the gap between the two is what the false positive ratio
/// (Equation 3 of the paper) measures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOutcome {
    /// Graph ids that survived filtering, sorted ascending.
    pub candidates: Vec<GraphId>,
    /// Graph ids that actually contain the query, sorted ascending.
    pub answers: Vec<GraphId>,
}

impl QueryOutcome {
    /// False positive ratio of this single query: `(|C| - |A|) / |C|`,
    /// or 0 when the candidate set is empty.
    pub fn false_positive_ratio(&self) -> f64 {
        if self.candidates.is_empty() {
            0.0
        } else {
            (self.candidates.len() - self.answers.len()) as f64 / self.candidates.len() as f64
        }
    }
}

/// Summary statistics of a built index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexStats {
    /// Number of distinct features (or fingerprints/signatures) stored.
    pub distinct_features: usize,
    /// Estimated index size in bytes.
    pub size_bytes: usize,
}

/// Common interface of the six filter-and-verify methods.
///
/// Indexes are built once over a [`Dataset`] (by each method's `build`
/// constructor), answer any number of subgraph queries and stay mutable.
///
/// **A method implements what differs between methods:** `kind`, the two
/// accessors of its one [`IdSpace`], `append`, `candidates_into`, `stats`,
/// and — where it has payload to give back — `reclaim_slot` (eager: CT-Index,
/// gCode) or `purge_dead` (lazy: the four posting methods).
///
/// **It inherits the lifecycle, which therefore exists once:** `universe`,
/// `insert`, `remove`, `filter_into`, `filter_into_cached`, `size_bytes` and
/// `query`; no method overrides any of them. The default
/// [`GraphIndex::verify_set`] uses the VF2 first-match verifier the paper
/// standardizes on; Grapes and CT-Index override it with their specialized
/// procedures, and Tree+Δ hooks query-time feature learning into it.
pub trait GraphIndex: Send + Sync {
    /// Which method this index implements.
    fn kind(&self) -> MethodKind;

    /// The index's id space: ids issued and ids dead.
    fn id_space(&self) -> &IdSpace;

    /// Mutable access to the same [`IdSpace`], for the provided lifecycle
    /// methods.
    fn id_space_mut(&mut self) -> &mut IdSpace;

    /// Indexes `graph`'s payload under the freshly issued id `gid` — the
    /// method-specific half of [`GraphIndex::insert`], which is its only
    /// caller. Payloads are extended in place (posting/trie append,
    /// fingerprint push); none rebuilds from scratch.
    fn append(&mut self, gid: GraphId, graph: &Graph);

    /// Gives back the per-graph slot of the just-removed `id` — the eager
    /// form of payload reclamation, for methods whose payload is one dense
    /// record per graph (CT-Index, gCode). Called by [`GraphIndex::remove`]
    /// on every successful removal. The slot must keep covering the empty
    /// query; the tombstone mask is what keeps the id out of candidates.
    fn reclaim_slot(&mut self, _id: GraphId) {}

    /// Drops every dead id of [`GraphIndex::id_space`] from the posting
    /// payloads — the lazy form of payload reclamation, for the methods that
    /// post graph ids under features. Called by [`GraphIndex::remove`] only
    /// when the compaction policy says the sweep pays for itself.
    fn purge_dead(&mut self) {}

    /// The filtering stage proper: resets `out` to
    /// [`GraphIndex::universe`] and narrows it to the candidate set of
    /// `query`, **without** the tombstone mask (the provided entry points
    /// apply it). With `ctx` present a posting-fold method folds hot
    /// per-feature bitsets from the cross-query cache instead of streaming
    /// its payloads; the bits left in `out` are identical either way.
    /// Methods whose filter is a direct id-ordered scan ignore `ctx`.
    fn candidates_into(
        &self,
        query: &Graph,
        out: &mut CandidateSet,
        ctx: Option<&mut FilterCacheCtx<'_>>,
    );

    /// Number of graphs this index has ever admitted — the universe every
    /// candidate set for this index ranges over. Includes tombstoned
    /// (removed) slots: ids are dense and stable under mutation.
    fn universe(&self) -> usize {
        self.id_space().universe()
    }

    /// Incrementally indexes `graph` as the next graph id (which is the
    /// current [`GraphIndex::universe`]) and returns that id. The caller
    /// must push the same graph onto the backing dataset
    /// ([`sqbench_graph::Dataset::push`]) so ids stay aligned — the serving
    /// layer (`ShardedService::insert_graph` in the harness) does both
    /// sides and invalidates caches.
    fn insert(&mut self, graph: &Graph) -> GraphId {
        let gid = self.id_space_mut().issue();
        self.append(gid, graph);
        gid
    }

    /// Removes graph `id` from the index. Returns `false` when `id` is out
    /// of range or already removed. The id stays allocated (dense stable
    /// ids): the index tombstones it, every subsequent filter masks it out,
    /// a per-graph slot is reclaimed at once and posting payloads are purged
    /// lazily once tombstones accumulate ([`Tombstones::should_compact`]).
    /// The mask itself never shrinks, so past the threshold every further
    /// removal purges again.
    fn remove(&mut self, id: GraphId) -> bool {
        if !self.id_space_mut().retire(id) {
            return false;
        }
        self.reclaim_slot(id);
        if self.id_space().should_compact() {
            self.purge_dead();
        }
        true
    }

    /// Borrowed-set filtering stage: resets `out` to [`GraphIndex::universe`]
    /// and narrows it to the candidate set of `query`, dead ids masked out,
    /// reusing the arena's allocation. This is the hot entry point batch
    /// serving uses — one arena per worker, zero candidate allocation per
    /// query.
    fn filter_into(&self, query: &Graph, out: &mut CandidateSet) {
        self.candidates_into(query, out, None);
        self.id_space().tombstones().apply(out);
    }

    /// Cache-aware filtering stage: [`GraphIndex::filter_into`] with a
    /// cross-query [`FilterCacheCtx`] the method may consult for hot
    /// per-feature bitsets before streaming posting lists. The result is
    /// **bit-identical** to `filter_into` — the cache only changes how the
    /// same bits are produced, never which bits.
    ///
    /// This stays a second entry point, rather than an `Option` argument of
    /// `filter_into`, because the repo's benchmark crate calls both
    /// signatures and is frozen. The fork ends here, in the trait: both
    /// call the method's one [`GraphIndex::candidates_into`].
    fn filter_into_cached(
        &self,
        query: &Graph,
        out: &mut CandidateSet,
        ctx: &mut FilterCacheCtx<'_>,
    ) {
        self.candidates_into(query, out, Some(ctx));
        self.id_space().tombstones().apply(out);
    }

    /// Index statistics (feature count, size in bytes).
    fn stats(&self) -> IndexStats;

    /// Estimated index size in bytes. Defaults to `stats().size_bytes`.
    fn size_bytes(&self) -> usize {
        self.stats().size_bytes
    }

    /// Verification stage, straight off a filtered [`CandidateSet`]: tests
    /// `query` against each set bit in id order with the shared VF2 verifier
    /// (first-match semantics), without materializing the candidates as a
    /// `Vec`. This is the one verify entry point; methods with specialized
    /// verification override it — CT-Index's tuned matcher, Grapes'
    /// location-restricted matching, Tree+Δ's query-time Δ learning — so
    /// every caller of `filter_into` + `verify_set` gets each method's
    /// published query semantics.
    fn verify_set(
        &self,
        dataset: &Dataset,
        query: &Graph,
        candidates: &CandidateSet,
    ) -> Vec<GraphId> {
        vf2_verify_set(dataset, query, candidates)
    }

    /// Full query processing: filtering followed by verification, through
    /// the borrowed-set stages (one arena, materialized only for the
    /// returned [`QueryOutcome::candidates`]).
    fn query(&self, dataset: &Dataset, query: &Graph) -> QueryOutcome {
        let mut set = CandidateSet::empty(self.universe());
        self.filter_into(query, &mut set);
        let answers = self.verify_set(dataset, query, &set);
        QueryOutcome {
            candidates: set.to_sorted_vec(),
            answers,
        }
    }
}

std::thread_local! {
    /// Per-thread VF2 scratch reused by every [`verify_blocks`] call on the
    /// same worker: the harness batches queries across a thread pool, and
    /// each worker's verification runs allocation-free after warm-up.
    static VERIFY_STATE: std::cell::RefCell<MatchState> =
        std::cell::RefCell::new(MatchState::new());
}

/// Candidates gathered per block by [`verify_blocks`]. The dataset
/// stores graphs behind `Arc`, so touching a candidate costs one pointer
/// hop; a gather pass reads each block candidate's vertex count in a tight
/// dependency-free loop, so the CPU overlaps those cache misses (and the
/// match pass finds every graph header hot) instead of serializing each
/// miss behind a full VF2 run — recovering the indirection cost of the
/// shared-storage data model on verification-heavy workloads.
const VERIFY_BLOCK: usize = 64;

/// The one in-place verify loop: runs `matches` (a method's per-candidate
/// predicate — plain VF2, or Grapes' location-restricted matching) over
/// `candidates` block-wise (gather `&Graph` refs and vertex counts, then
/// match) on the calling thread's VF2 scratch, and returns the surviving ids
/// in input order. The gathered vertex count doubles as a sound size
/// prefilter: a graph with fewer vertices than `min_vertices` (the query's)
/// cannot contain the query, so the predicate is never entered for it.
pub(crate) fn verify_blocks(
    dataset: &Dataset,
    min_vertices: usize,
    candidates: impl Iterator<Item = GraphId>,
    matches: impl Fn(&mut MatchState, &Graph) -> bool,
) -> Vec<GraphId> {
    VERIFY_STATE.with(|cell| {
        let state = &mut *cell.borrow_mut();
        let mut answers = Vec::new();
        // Two blocks, double-buffered: candidates gather into `pending`
        // (each push issues a software prefetch of the graph's
        // label/adjacency buffers), and once `pending` is full the
        // *previous* block — whose prefetches were issued one round earlier
        // and have had a full block of gather work to land — runs through
        // the predicate. The final partial rounds flush in arrival order to
        // keep `answers` sorted by input order.
        let mut ready: Vec<(GraphId, &Graph)> = Vec::with_capacity(VERIFY_BLOCK);
        let mut pending: Vec<(GraphId, &Graph)> = Vec::with_capacity(VERIFY_BLOCK);
        let mut flush = |block: &mut Vec<(GraphId, &Graph)>, answers: &mut Vec<GraphId>| {
            for &(gid, g) in block.iter() {
                if matches(state, g) {
                    answers.push(gid);
                }
            }
            block.clear();
        };
        for gid in candidates {
            let Ok(g) = dataset.graph(gid) else { continue };
            // The load that matters: one touch of the graph header per
            // candidate, issued back to back across the block.
            if g.vertex_count() >= min_vertices {
                g.prefetch_hint();
                pending.push((gid, g));
                if pending.len() == VERIFY_BLOCK {
                    flush(&mut ready, &mut answers);
                    std::mem::swap(&mut ready, &mut pending);
                }
            }
        }
        flush(&mut ready, &mut answers);
        flush(&mut pending, &mut answers);
        answers
    })
}

/// Shared VF2 verification helper: keeps candidates that actually contain
/// the query, preserving sorted order. The matcher borrows the query (no
/// clone) and the search scratch is a per-thread [`MatchState`] reused
/// across candidates *and* across queries served by the same worker thread.
pub fn vf2_verify(dataset: &Dataset, query: &Graph, candidates: &[GraphId]) -> Vec<GraphId> {
    vf2_verify_ids(dataset, query, candidates.iter().copied())
}

/// Shared VF2 verification over a candidate bitset: keeps the member ids
/// that actually contain the query, in ascending id order, without ever
/// materializing the candidate set as a `Vec`. Same matcher/scratch reuse as
/// [`vf2_verify`] (per-thread [`MatchState`], query borrowed once).
pub fn vf2_verify_set(dataset: &Dataset, query: &Graph, candidates: &CandidateSet) -> Vec<GraphId> {
    vf2_verify_ids(dataset, query, candidates.iter())
}

fn vf2_verify_ids(
    dataset: &Dataset,
    query: &Graph,
    candidates: impl Iterator<Item = GraphId>,
) -> Vec<GraphId> {
    let matcher = Vf2Matcher::new(query);
    verify_blocks(dataset, query.vertex_count(), candidates, |state, g| {
        matcher.matches_with(state, g)
    })
}

/// Exhaustive ground truth: the exact answer set computed by running the
/// verifier against *every* graph in the dataset (the "naive method" the
/// paper uses as the correctness baseline). Quadratically expensive; used
/// by tests and small-scale experiments only.
pub fn exhaustive_answers(dataset: &Dataset, query: &Graph) -> Vec<GraphId> {
    let all: Vec<GraphId> = dataset.ids().collect();
    vf2_verify(dataset, query, &all)
}

/// Builds an index of the requested method over `dataset` using the given
/// configuration bundle. This is the factory the harness uses to iterate
/// over all six methods uniformly.
pub fn build_index(
    kind: MethodKind,
    config: &MethodConfig,
    dataset: &Dataset,
) -> Box<dyn GraphIndex> {
    match kind {
        MethodKind::Grapes => Box::new(grapes::GrapesIndex::build(dataset, config.grapes.clone())),
        MethodKind::Ggsx => Box::new(ggsx::GgsxIndex::build(dataset, config.ggsx.clone())),
        MethodKind::CtIndex => Box::new(ctindex::CtIndex::build(dataset, config.ctindex.clone())),
        MethodKind::GIndex => Box::new(gindex::GIndex::build(dataset, config.gindex.clone())),
        MethodKind::TreeDelta => Box::new(treedelta::TreeDeltaIndex::build(
            dataset,
            config.treedelta.clone(),
        )),
        MethodKind::GCode => Box::new(gcode::GCodeIndex::build(dataset, config.gcode.clone())),
        MethodKind::Scan => Box::new(scan::ScanBaseline::build(dataset)),
    }
}

/// Intersects two sorted id lists with the textbook linear merge.
///
/// The reference implementation the [`candidates`] bitset engine is
/// property-tested against, and the baseline of the `micro_candidates`
/// benchmark.
pub fn intersect_sorted(a: &[GraphId], b: &[GraphId]) -> Vec<GraphId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqbench_graph::GraphBuilder;

    fn tiny_dataset() -> Dataset {
        let tri = GraphBuilder::new("tri")
            .vertices(&[1, 1, 2])
            .edges(&[(0, 1), (1, 2), (2, 0)])
            .build()
            .unwrap();
        let path = GraphBuilder::new("path")
            .vertices(&[1, 2, 3])
            .edges(&[(0, 1), (1, 2)])
            .build()
            .unwrap();
        Dataset::from_graphs("tiny", vec![tri, path])
    }

    #[test]
    fn method_names() {
        assert_eq!(MethodKind::Grapes.name(), "Grapes");
        assert_eq!(MethodKind::ALL.len(), 6);
    }

    #[test]
    fn outcome_false_positive_ratio() {
        let o = QueryOutcome {
            candidates: vec![0, 1, 2, 3],
            answers: vec![0],
        };
        assert!((o.false_positive_ratio() - 0.75).abs() < 1e-12);
        let empty = QueryOutcome {
            candidates: vec![],
            answers: vec![],
        };
        assert_eq!(empty.false_positive_ratio(), 0.0);
    }

    #[test]
    fn vf2_verify_filters_non_matches() {
        let ds = tiny_dataset();
        let q = GraphBuilder::new("q")
            .vertices(&[1, 2])
            .edge(0, 1)
            .build()
            .unwrap();
        let verified = vf2_verify(&ds, &q, &[0, 1]);
        assert_eq!(verified, vec![0, 1]);
        let q2 = GraphBuilder::new("q2")
            .vertices(&[2, 3])
            .edge(0, 1)
            .build()
            .unwrap();
        assert_eq!(vf2_verify(&ds, &q2, &[0, 1]), vec![1]);
    }

    #[test]
    fn exhaustive_answers_scans_whole_dataset() {
        let ds = tiny_dataset();
        let q = GraphBuilder::new("q").vertices(&[1]).build().unwrap();
        assert_eq!(exhaustive_answers(&ds, &q), vec![0, 1]);
    }

    #[test]
    fn intersect_sorted_works() {
        assert_eq!(intersect_sorted(&[1, 3, 5, 7], &[2, 3, 5, 8]), vec![3, 5]);
        assert_eq!(intersect_sorted(&[], &[1, 2]), Vec::<usize>::new());
        assert_eq!(intersect_sorted(&[1, 2], &[1, 2]), vec![1, 2]);
    }
}
