//! VF2-style subgraph isomorphism matcher.
//!
//! The matcher searches for an injective mapping `m` from the vertices of a
//! *query* graph to the vertices of a *target* graph such that labels are
//! preserved and every query edge maps to a target edge (the target may have
//! additional edges — non-induced subgraph isomorphism, as in Definition 3
//! of the paper).
//!
//! The search follows the VF2 recipe: query vertices are matched one at a
//! time in a connectivity-aware order, candidate target vertices are
//! restricted to those with a compatible label, sufficient degree and
//! consistent adjacency to the partial mapping, and a one-step look-ahead on
//! unmatched-neighbor counts prunes hopeless branches early.
//!
//! ## Allocation discipline
//!
//! Verification is the inner loop of every filter-and-verify method: one
//! query is tested against *every* candidate graph. The matcher is therefore
//! built once per query ([`Vf2Matcher::new`] borrows the query — no clone)
//! and all per-target scratch lives in a caller-owned [`MatchState`] that is
//! reused across candidates: after warm-up, testing another candidate
//! allocates nothing. The search itself walks target adjacency slices
//! directly instead of materializing per-depth candidate vectors.

use sqbench_graph::{Graph, VertexId};

/// Statistics of one matching run, useful for harness instrumentation and
/// for tests that assert pruning actually happens.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Number of recursive states expanded.
    pub states_visited: usize,
    /// Number of embeddings found (bounded by the configured limit).
    pub embeddings_found: usize,
}

/// Reusable per-target scratch buffers of the VF2 search: the partial
/// mapping and the used-vertex flags. Create one per worker (or per query)
/// and pass it to [`Vf2Matcher::matches_with`] for every candidate; the
/// buffers grow to the largest target seen and are never reallocated after.
///
/// The search maintains the invariant that both buffers are fully reset
/// (all unmapped / unused) whenever a search returns, so preparing the state
/// for the next target is a pair of `resize` calls — no `O(n)` clearing.
#[derive(Debug, Clone, Default)]
pub struct MatchState {
    /// Partial mapping query vertex -> target vertex (usize::MAX = unmapped).
    q_to_t: Vec<usize>,
    /// Target vertices already used by the mapping.
    t_used: Vec<bool>,
}

impl MatchState {
    /// Creates an empty scratch state.
    pub fn new() -> Self {
        MatchState::default()
    }

    /// Sizes the buffers for a (query, target) pair. Relies on the
    /// clean-on-return invariant: surviving prefixes are already reset, so
    /// `resize` (which grows with clean fill values and shrinks exactly)
    /// is all that is needed — no `O(n)` clearing.
    fn prepare(&mut self, qn: usize, tn: usize) {
        debug_assert!(self.q_to_t.iter().all(|&m| m == usize::MAX), "dirty q_to_t");
        debug_assert!(self.t_used.iter().all(|&u| !u), "dirty t_used");
        self.q_to_t.resize(qn, usize::MAX);
        self.t_used.resize(tn, false);
    }
}

/// A reusable VF2 matcher bound to a query graph. Borrows the query and
/// pre-computes the matching order of its vertices once, so repeated
/// verification of the same query against many candidate graphs (the common
/// case in filter-and-verify) avoids redundant work.
#[derive(Debug, Clone)]
pub struct Vf2Matcher<'q> {
    query: &'q Graph,
    /// Order in which query vertices are matched.
    order: Vec<VertexId>,
}

impl<'q> Vf2Matcher<'q> {
    /// Builds a matcher for the given query graph (borrow, no clone) and
    /// pre-computes its connectivity-aware matching order.
    pub fn new(query: &'q Graph) -> Self {
        Vf2Matcher {
            query,
            order: matching_order(query),
        }
    }

    /// The query graph this matcher was built for.
    pub fn query(&self) -> &Graph {
        self.query
    }

    /// `true` iff the query is subgraph-isomorphic to `target`.
    ///
    /// Convenience wrapper that allocates a fresh [`MatchState`]; loops over
    /// many targets should hold one state and call
    /// [`Vf2Matcher::matches_with`] instead.
    pub fn matches(&self, target: &Graph) -> bool {
        self.matches_with(&mut MatchState::new(), target)
    }

    /// `true` iff the query is subgraph-isomorphic to `target`, reusing the
    /// caller's scratch buffers (the zero-allocation verification path).
    pub fn matches_with(&self, state: &mut MatchState, target: &Graph) -> bool {
        let mut stats = MatchStats::default();
        let mut results = Vec::new();
        self.run(
            state,
            target,
            1,
            CollectMode::Exists,
            &mut results,
            &mut stats,
        ) > 0
    }

    /// Returns the first embedding found, as a vector mapping each query
    /// vertex id to a target vertex id, or `None` if the query is not
    /// contained in the target. An empty query embeds trivially.
    pub fn find_first(&self, target: &Graph) -> Option<Vec<VertexId>> {
        let mut stats = MatchStats::default();
        self.find_with_limit(target, 1, &mut stats).pop()
    }

    /// Counts embeddings up to `limit` (use a small limit: the number of
    /// embeddings can be exponential).
    pub fn count(&self, target: &Graph, limit: usize) -> usize {
        let mut stats = MatchStats::default();
        self.find_with_limit(target, limit, &mut stats).len()
    }

    /// Finds up to `limit` embeddings, recording search statistics.
    pub fn find_with_limit(
        &self,
        target: &Graph,
        limit: usize,
        stats: &mut MatchStats,
    ) -> Vec<Vec<VertexId>> {
        self.find_with_limit_in(&mut MatchState::new(), target, limit, stats)
    }

    /// Finds up to `limit` embeddings using the caller's scratch state.
    pub fn find_with_limit_in(
        &self,
        state: &mut MatchState,
        target: &Graph,
        limit: usize,
        stats: &mut MatchStats,
    ) -> Vec<Vec<VertexId>> {
        let mut results = Vec::new();
        self.run(
            state,
            target,
            limit,
            CollectMode::Embeddings,
            &mut results,
            stats,
        );
        results
    }

    /// Shared search driver. Returns the number of embeddings found by
    /// *this* run — `stats` accumulates across calls when the caller reuses
    /// it, so the limit must not be compared against the cumulative count.
    fn run(
        &self,
        state: &mut MatchState,
        target: &Graph,
        limit: usize,
        mode: CollectMode,
        results: &mut Vec<Vec<VertexId>>,
        stats: &mut MatchStats,
    ) -> usize {
        let qn = self.query.vertex_count();
        let tn = target.vertex_count();
        if limit == 0 {
            return 0;
        }
        if qn == 0 {
            // The empty query is contained in every graph. Stats accumulate
            // across runs like every other path.
            if mode == CollectMode::Embeddings {
                results.push(Vec::new());
            }
            stats.embeddings_found += 1;
            return 1;
        }
        if qn > tn || self.query.edge_count() > target.edge_count() {
            return 0;
        }
        state.prepare(qn, tn);
        let mut search = Search {
            query: self.query,
            target,
            order: &self.order,
            state,
            limit,
            found: 0,
            mode,
            results,
            stats,
        };
        search.search(0);
        search.found
    }
}

/// What the search should produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CollectMode {
    /// Only existence is needed — found embeddings are counted, not cloned.
    Exists,
    /// Each found embedding is cloned into the result vector.
    Embeddings,
}

/// Connectivity-aware matching order: start with the vertex of highest
/// degree, then repeatedly pick the unordered vertex with the most already-
/// ordered neighbors (ties broken by degree, then by smallest id).
/// Disconnected queries fall back to the highest-degree remaining vertex
/// when no vertex touches the ordered set.
///
/// Placed-neighbor counts are maintained incrementally (the seed
/// implementation re-counted neighbors per candidate per round), and the
/// only allocations are the returned order and one scratch counter vector.
fn matching_order(query: &Graph) -> Vec<VertexId> {
    let n = query.vertex_count();
    let mut order = Vec::with_capacity(n);
    // Placed-neighbor count per vertex; usize::MAX marks "already placed".
    let mut placed_neighbors = vec![0usize; n];
    for _ in 0..n {
        let mut best: Option<VertexId> = None;
        for v in 0..n {
            if placed_neighbors[v] == usize::MAX {
                continue;
            }
            let better = match best {
                None => true,
                // Strict >: on full ties the earlier (smaller) id wins,
                // matching the seed implementation's tie-breaking.
                Some(b) => {
                    (placed_neighbors[v], query.degree(v)) > (placed_neighbors[b], query.degree(b))
                }
            };
            if better {
                best = Some(v);
            }
        }
        let v = best.expect("unplaced vertex exists");
        placed_neighbors[v] = usize::MAX;
        for &w in query.neighbors(v) {
            if placed_neighbors[w] != usize::MAX {
                placed_neighbors[w] += 1;
            }
        }
        order.push(v);
    }
    order
}

struct Search<'a> {
    query: &'a Graph,
    target: &'a Graph,
    order: &'a [VertexId],
    state: &'a mut MatchState,
    limit: usize,
    /// Embeddings found by this run (the limit counter; `stats` may carry
    /// counts accumulated from earlier runs against other targets).
    found: usize,
    mode: CollectMode,
    results: &'a mut Vec<Vec<VertexId>>,
    stats: &'a mut MatchStats,
}

impl Search<'_> {
    fn search(&mut self, depth: usize) -> bool {
        self.stats.states_visited += 1;
        if depth == self.order.len() {
            self.found += 1;
            self.stats.embeddings_found += 1;
            if self.mode == CollectMode::Embeddings {
                self.results.push(self.state.q_to_t.clone());
            }
            return self.found >= self.limit;
        }
        let qv = self.order[depth];
        // Candidate targets: if some neighbor of qv is already mapped,
        // restrict candidates to the neighbors of its image (much smaller
        // than scanning all target vertices). The adjacency slice is walked
        // directly — `target` is a copied reference, so iterating it does
        // not conflict with the mutable recursion below.
        let target = self.target;
        let mapped_neighbor = self
            .query
            .neighbors(qv)
            .iter()
            .find(|&&w| self.state.q_to_t[w] != usize::MAX)
            .copied();
        match mapped_neighbor {
            Some(w) => {
                let image = self.state.q_to_t[w];
                for &tv in target.neighbors(image) {
                    if self.try_extend(depth, qv, tv) {
                        return true;
                    }
                }
            }
            None => {
                for tv in 0..target.vertex_count() {
                    if self.try_extend(depth, qv, tv) {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Tries the pair `(qv, tv)`, recursing on success; returns `true` when
    /// the search is done (limit reached).
    fn try_extend(&mut self, depth: usize, qv: VertexId, tv: VertexId) -> bool {
        if self.state.t_used[tv] || !self.feasible(qv, tv) {
            return false;
        }
        self.state.q_to_t[qv] = tv;
        self.state.t_used[tv] = true;
        let done = self.search(depth + 1);
        // Always undo before returning so the state's clean-on-return
        // invariant holds even when the limit cuts the search short.
        self.state.q_to_t[qv] = usize::MAX;
        self.state.t_used[tv] = false;
        done
    }

    /// VF2 feasibility rules for the candidate pair `(qv, tv)`.
    fn feasible(&self, qv: VertexId, tv: VertexId) -> bool {
        // Label compatibility.
        if self.query.label(qv) != self.target.label(tv) {
            return false;
        }
        // Degree bound: tv must have at least as many neighbors as qv.
        if self.target.degree(tv) < self.query.degree(qv) {
            return false;
        }
        // Core consistency: every already-mapped neighbor of qv must map to
        // a neighbor of tv (non-induced: unmapped target edges are fine).
        let mut unmapped_query_neighbors = 0usize;
        for &qw in self.query.neighbors(qv) {
            let mapped = self.state.q_to_t[qw];
            if mapped != usize::MAX {
                if !self.target.has_edge(tv, mapped) {
                    return false;
                }
            } else {
                unmapped_query_neighbors += 1;
            }
        }
        // Look-ahead: tv must have enough unused neighbors to host the
        // still-unmapped neighbors of qv.
        let free_target_neighbors = self
            .target
            .neighbors(tv)
            .iter()
            .filter(|&&tw| !self.state.t_used[tw])
            .count();
        free_target_neighbors >= unmapped_query_neighbors
    }
}

/// Convenience function: `true` iff `query` is subgraph-isomorphic to
/// `target`, stopping at the first match.
pub fn has_subgraph_embedding(query: &Graph, target: &Graph) -> bool {
    Vf2Matcher::new(query).matches(target)
}

/// Convenience function returning the first embedding (query vertex id →
/// target vertex id), if any.
pub fn find_first_embedding(query: &Graph, target: &Graph) -> Option<Vec<VertexId>> {
    Vf2Matcher::new(query).find_first(target)
}

/// Convenience function counting embeddings up to `limit`.
pub fn count_embeddings(query: &Graph, target: &Graph, limit: usize) -> usize {
    Vf2Matcher::new(query).count(target, limit)
}

/// [`has_subgraph_embedding`] under CT-Index's verifier name. The standalone
/// benchmark crate's trace times `TunedMatcher::matches`
/// (`iso.tuned_{hit,miss}_us`), and that caller is the only reason this type
/// exists: CT-Index verifies with the shared VF2 like every method.
#[derive(Debug, Clone)]
pub struct TunedMatcher;

impl TunedMatcher {
    /// [`has_subgraph_embedding`].
    pub fn matches(query: &Graph, target: &Graph) -> bool {
        has_subgraph_embedding(query, target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqbench_graph::GraphBuilder;

    fn triangle(labels: [u32; 3]) -> Graph {
        GraphBuilder::new("tri")
            .vertices(&labels)
            .edges(&[(0, 1), (1, 2), (2, 0)])
            .build()
            .unwrap()
    }

    fn path(labels: &[u32]) -> Graph {
        let mut b = GraphBuilder::new("path").vertices(labels);
        for i in 1..labels.len() {
            b = b.edge(i - 1, i);
        }
        b.build().unwrap()
    }

    fn square_with_diagonal() -> Graph {
        GraphBuilder::new("sq")
            .vertices(&[1, 1, 1, 1])
            .edges(&[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
            .build()
            .unwrap()
    }

    #[test]
    fn path_embeds_in_triangle() {
        let q = path(&[1, 1]);
        let t = triangle([1, 1, 1]);
        assert!(has_subgraph_embedding(&q, &t));
        let emb = find_first_embedding(&q, &t).unwrap();
        assert_eq!(emb.len(), 2);
        assert!(t.has_edge(emb[0], emb[1]));
    }

    #[test]
    fn labels_must_match() {
        let q = path(&[1, 2]);
        let t = triangle([1, 1, 1]);
        assert!(!has_subgraph_embedding(&q, &t));
        assert!(has_subgraph_embedding(&q, &triangle([1, 2, 1])));
    }

    #[test]
    fn triangle_does_not_embed_in_path() {
        let q = triangle([1, 1, 1]);
        let t = path(&[1, 1, 1, 1]);
        assert!(!has_subgraph_embedding(&q, &t));
    }

    #[test]
    fn non_induced_semantics() {
        // A 4-cycle query embeds in the square-with-diagonal even though the
        // target has an extra edge between mapped vertices.
        let q = GraphBuilder::new("c4")
            .vertices(&[1, 1, 1, 1])
            .edges(&[(0, 1), (1, 2), (2, 3), (3, 0)])
            .build()
            .unwrap();
        assert!(has_subgraph_embedding(&q, &square_with_diagonal()));
    }

    #[test]
    fn empty_query_embeds_everywhere() {
        let q = Graph::new("empty");
        let t = triangle([1, 2, 3]);
        assert!(has_subgraph_embedding(&q, &t));
        assert_eq!(find_first_embedding(&q, &t).unwrap().len(), 0);
    }

    #[test]
    fn query_larger_than_target_fails_fast() {
        let q = path(&[1, 1, 1, 1, 1]);
        let t = path(&[1, 1, 1]);
        assert!(!has_subgraph_embedding(&q, &t));
    }

    #[test]
    fn single_vertex_query() {
        let q = GraphBuilder::new("v").vertex(2).build().unwrap();
        assert!(has_subgraph_embedding(&q, &triangle([1, 2, 3])));
        assert!(!has_subgraph_embedding(&q, &triangle([1, 1, 3])));
    }

    #[test]
    fn embedding_is_injective_and_edge_preserving() {
        let q = path(&[1, 1, 1]);
        let t = square_with_diagonal();
        let emb = find_first_embedding(&q, &t).unwrap();
        let mut sorted = emb.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), emb.len(), "embedding must be injective");
        for (u, v) in q.edges() {
            assert!(t.has_edge(emb[u], emb[v]));
            assert_eq!(q.label(u), t.label(emb[u]));
            assert_eq!(q.label(v), t.label(emb[v]));
        }
    }

    #[test]
    fn count_embeddings_in_triangle() {
        // A labeled edge 1-1 in an all-1 triangle: 3 edges × 2 directions.
        let q = path(&[1, 1]);
        let t = triangle([1, 1, 1]);
        assert_eq!(count_embeddings(&q, &t, 100), 6);
        // Limit is respected.
        assert_eq!(count_embeddings(&q, &t, 4), 4);
    }

    #[test]
    fn disconnected_query_embeds_component_wise() {
        // Query: two isolated labeled vertices 1 and 2.
        let q = GraphBuilder::new("2v").vertices(&[1, 2]).build().unwrap();
        let t = path(&[2, 3, 1]);
        assert!(has_subgraph_embedding(&q, &t));
        let t2 = path(&[1, 1, 1]);
        assert!(!has_subgraph_embedding(&q, &t2));
    }

    #[test]
    fn self_containment() {
        let g = square_with_diagonal();
        assert!(has_subgraph_embedding(&g, &g));
    }

    #[test]
    fn stats_are_recorded() {
        let q = path(&[1, 1, 1]);
        let t = square_with_diagonal();
        let matcher = Vf2Matcher::new(&q);
        let mut stats = MatchStats::default();
        let found = matcher.find_with_limit(&t, 1, &mut stats);
        assert_eq!(found.len(), 1);
        assert!(stats.states_visited > 0);
        assert_eq!(stats.embeddings_found, 1);
    }

    #[test]
    fn matcher_is_reusable_across_targets() {
        let q = path(&[1, 2]);
        let matcher = Vf2Matcher::new(&q);
        assert!(matcher.matches(&triangle([1, 2, 3])));
        assert!(!matcher.matches(&triangle([3, 3, 3])));
        assert_eq!(matcher.query().vertex_count(), 2);
    }

    #[test]
    fn shared_state_is_reusable_across_targets_and_queries() {
        let mut state = MatchState::new();
        let q1 = path(&[1, 2]);
        let m1 = Vf2Matcher::new(&q1);
        // Alternate differently-sized targets to exercise buffer resizing
        // in both directions.
        assert!(m1.matches_with(&mut state, &triangle([1, 2, 3])));
        assert!(m1.matches_with(&mut state, &path(&[1, 2, 1, 2, 1])));
        assert!(!m1.matches_with(&mut state, &triangle([3, 3, 3])));
        // A different (larger) query through the same state.
        let q2 = path(&[1, 2, 1, 2]);
        let m2 = Vf2Matcher::new(&q2);
        assert!(m2.matches_with(&mut state, &path(&[1, 2, 1, 2, 1])));
        assert!(!m2.matches_with(&mut state, &triangle([1, 2, 3])));
        // And back to the small query (shrinking buffers).
        assert!(m1.matches_with(&mut state, &triangle([1, 2, 3])));
    }

    #[test]
    fn shared_state_find_with_limit_agrees_with_fresh_state() {
        let q = path(&[1, 1]);
        let t = triangle([1, 1, 1]);
        let matcher = Vf2Matcher::new(&q);
        let mut state = MatchState::new();
        let mut stats = MatchStats::default();
        let embs = matcher.find_with_limit_in(&mut state, &t, 100, &mut stats);
        assert_eq!(embs.len(), 6);
        // The state is clean afterwards and can be reused immediately.
        let mut stats2 = MatchStats::default();
        let embs2 = matcher.find_with_limit_in(&mut state, &t, 100, &mut stats2);
        assert_eq!(embs, embs2);
    }

    #[test]
    fn reused_stats_do_not_leak_into_the_limit() {
        let q = path(&[1, 1]);
        let t = triangle([1, 1, 1]);
        let matcher = Vf2Matcher::new(&q);
        let mut stats = MatchStats::default();
        // First call finds all 6 embeddings and accumulates stats.
        assert_eq!(matcher.find_with_limit(&t, 100, &mut stats).len(), 6);
        // Reusing the same stats must not count the earlier embeddings
        // against the new call's limit.
        assert_eq!(matcher.find_with_limit(&t, 4, &mut stats).len(), 4);
        assert_eq!(stats.embeddings_found, 10);
        // Existence checks are likewise per-run.
        let mut state = MatchState::new();
        assert!(matcher.matches_with(&mut state, &t));
        assert!(matcher.matches_with(&mut state, &t));
    }

    #[test]
    fn matching_order_prefers_connected_high_degree() {
        // Star center (degree 3) first, then its neighbors.
        let star = GraphBuilder::new("star")
            .vertices(&[1, 1, 1, 1])
            .edges(&[(0, 1), (0, 2), (0, 3)])
            .build()
            .unwrap();
        let order = matching_order(&star);
        assert_eq!(order[0], 0);
        assert_eq!(order.len(), 4);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }
}
