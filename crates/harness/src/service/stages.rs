//! One query's execution, filter then verify, and the vocabulary it is
//! reported in ([`QueryRecord`], [`QueryOutcome`]).
//!
//! `run_query` narrows the worker's one [`CandidateSet`] in place via
//! [`GraphIndex::filter_into`] — no candidate `Vec` is materialized — and
//! then runs [`GraphIndex::verify_set`] straight off the same bits on the
//! same thread: the one shared VF2, with each method's own additions around
//! it (Grapes' thread fan-out, Tree+Δ's Δ learning). The set stays with the
//! worker for its next query.

use crate::metrics::Stopwatch;
use sqbench_graph::{Dataset, Graph, GraphId};
use sqbench_index::{CandidateSet, FeatureCacheStore, FilterCacheCtx, GraphIndex};

/// How one query's service-side execution ended. Every query a wave or
/// batch accepts gets exactly one outcome — there is no implicit
/// assume-success path — and the merge, the metrics and the CSV report all
/// speak this vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOutcome {
    /// Every probed shard (or the single pool) verified the query: the
    /// answer set is exact.
    Complete,
    /// Some probed shards finished and others failed or timed out within
    /// the deadline budget. The answer set is the union of the finished
    /// shards — *sound* (every reported id is a real match; shards verify
    /// exactly) but possibly incomplete by up to `shards_missing` shards'
    /// worth of answers.
    Degraded {
        /// Probed shards that contributed nothing (failed or timed out).
        shards_missing: usize,
    },
    /// The deadline expired before the query could start anywhere; no
    /// answers are reported.
    TimedOut,
    /// The query's execution panicked (or its pool died) on every shard
    /// that could have answered it, and retries did not recover it.
    Failed,
    /// Admission shed the query before it entered a wave: its deadline was
    /// infeasible given the backlog. Only admission-side accounting uses
    /// this variant — a shed query never reaches a wave.
    Shed,
}

impl QueryOutcome {
    /// `true` for outcomes that produced a (possibly partial) answer set:
    /// [`QueryOutcome::Complete`] and [`QueryOutcome::Degraded`].
    pub fn is_executed(&self) -> bool {
        matches!(self, QueryOutcome::Complete | QueryOutcome::Degraded { .. })
    }

    /// Short name used in logs and test diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            QueryOutcome::Complete => "complete",
            QueryOutcome::Degraded { .. } => "degraded",
            QueryOutcome::TimedOut => "timed-out",
            QueryOutcome::Failed => "failed",
            QueryOutcome::Shed => "shed",
        }
    }
}

/// What the service records for one executed query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRecord {
    /// Number of graphs that survived filtering.
    pub candidate_count: usize,
    /// Graphs pruned by filtering (`universe − candidate_count`).
    pub candidates_pruned: usize,
    /// The verified answer ids, sorted ascending.
    pub answers: Vec<GraphId>,
    /// Seconds spent waiting in the request queue.
    pub queue_wait_s: f64,
    /// Seconds spent probing the cross-query caches (feature-cache probes
    /// inside the filter stage, or the admission-time answer-memo probe for
    /// a memo-served query). `0.0` when caching is disabled.
    pub cache_probe_s: f64,
    /// Seconds spent in the filter stage, cache probes excluded.
    pub filter_s: f64,
    /// Seconds spent in the verify stage.
    pub verify_s: f64,
}

impl QueryRecord {
    /// Number of verified answers.
    pub fn answer_count(&self) -> usize {
        self.answers.len()
    }
}

/// Runs one claimed query to completion on the calling worker: narrows the
/// worker's `set` to the query's candidates, calls `before_verify` (the
/// fault-injection hook), then verifies the candidates straight off the
/// bits and returns the finished record. `queue_wait_s` is copied into the
/// record as measured by the caller.
///
/// The filter's wall time is split into `filter_s` and `cache_probe_s`.
/// With `cache: None` (or a method that opts out of
/// [`GraphIndex::filter_into_cached`]) the probe time is exactly `0.0` and
/// the path is byte-identical to the uncached service.
pub(crate) fn run_query(
    index: &dyn GraphIndex,
    dataset: &Dataset,
    query: &Graph,
    set: &mut CandidateSet,
    cache: Option<&dyn FeatureCacheStore>,
    queue_wait_s: f64,
    before_verify: impl FnOnce(),
) -> QueryRecord {
    let watch = Stopwatch::start();
    let cache_probe_s = match cache {
        Some(store) => {
            let mut ctx = FilterCacheCtx::new(store);
            index.filter_into_cached(query, set, &mut ctx);
            ctx.probe_seconds()
        }
        None => {
            index.filter_into(query, set);
            0.0
        }
    };
    let filter_s = (watch.elapsed_secs() - cache_probe_s).max(0.0);
    before_verify();
    let watch = Stopwatch::start();
    let answers = index.verify_set(dataset, query, set);
    let verify_s = watch.elapsed_secs();
    let candidate_count = set.len();
    QueryRecord {
        candidate_count,
        candidates_pruned: set.universe() - candidate_count,
        answers,
        queue_wait_s,
        cache_probe_s,
        filter_s,
        verify_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqbench_graph::GraphBuilder;
    use sqbench_index::{build_index, MethodConfig, MethodKind};

    #[test]
    fn stages_compose_into_a_full_query() {
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
        let ds = Dataset::from_graphs("ds", vec![tri, path]);
        let index = build_index(MethodKind::Ggsx, &MethodConfig::fast(), &ds);
        let query = GraphBuilder::new("q")
            .vertices(&[1, 2])
            .edge(0, 1)
            .build()
            .unwrap();

        let mut set = CandidateSet::empty(0); // dirty universe on purpose
        let mut hooked = false;
        let record = run_query(&*index, &ds, &query, &mut set, None, 0.5, || hooked = true);
        assert!(hooked, "the verify hook fires");
        assert!(record.filter_s >= 0.0);
        assert_eq!(record.cache_probe_s, 0.0, "no cache, no probe time");
        assert_eq!(record.queue_wait_s, 0.5);
        assert_eq!(record.candidate_count + record.candidates_pruned, ds.len());
        assert_eq!(set.universe(), ds.len());

        // The served result equals the one-shot query path.
        let outcome = index.query(&ds, &query);
        assert_eq!(record.answers, outcome.answers);
        assert_eq!(record.candidate_count, outcome.candidates.len());
        assert_eq!(record.answer_count(), outcome.answers.len());
    }
}
