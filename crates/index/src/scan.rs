//! The index-less baseline: sequential scan with subgraph isomorphism.
//!
//! This is the "naive method" the paper uses to motivate indexing in its
//! introduction — test the query for subgraph isomorphism against every
//! graph in the dataset. It builds no index (zero construction time and
//! size), its candidate set is always the whole dataset, and its false
//! positive ratio is therefore exactly the fraction of graphs that do not
//! contain the query. It is not one of the six compared methods, but it is
//! the yardstick the filter-and-verify architecture is measured against and
//! is useful in ablations ("how much does filtering actually buy?").

use crate::candidates::{CandidateSet, IdSpace};
use crate::fcache::FilterCacheCtx;
use crate::{GraphIndex, IndexStats, MethodKind};
use sqbench_graph::{Dataset, Graph, GraphId};

/// The sequential-scan baseline.
#[derive(Debug, Clone)]
pub struct ScanBaseline {
    /// The only state the baseline's "filter" has to honor: how many graphs
    /// were ever admitted, and which were removed.
    ids: IdSpace,
}

impl ScanBaseline {
    /// "Builds" the baseline (records only the dataset's id space).
    pub fn build(dataset: &Dataset) -> Self {
        ScanBaseline {
            ids: IdSpace::of(dataset),
        }
    }
}

impl GraphIndex for ScanBaseline {
    fn kind(&self) -> MethodKind {
        MethodKind::Scan
    }

    fn id_space(&self) -> &IdSpace {
        &self.ids
    }

    fn id_space_mut(&mut self) -> &mut IdSpace {
        &mut self.ids
    }

    fn append(&mut self, _gid: GraphId, _graph: &Graph) {}

    fn candidates_into(
        &self,
        _query: &Graph,
        out: &mut CandidateSet,
        _ctx: Option<&mut FilterCacheCtx<'_>>,
    ) {
        // No index, no pruning: every graph is a candidate. The arena is
        // reset to the full set in place, so even the baseline serves
        // queries without a per-query allocation.
        out.reset_full(self.ids.universe());
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            distinct_features: 0,
            // The paper defines the scan baseline as index-free; its
            // reported size is the yardstick of the index-size panel.
            size_bytes: std::mem::size_of::<Self>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive_answers;
    use sqbench_graph::GraphBuilder;

    fn dataset() -> Dataset {
        let a = GraphBuilder::new("a")
            .vertices(&[1, 2])
            .edge(0, 1)
            .build()
            .unwrap();
        let b = GraphBuilder::new("b")
            .vertices(&[2, 3])
            .edge(0, 1)
            .build()
            .unwrap();
        Dataset::from_graphs("ds", vec![a, b])
    }

    #[test]
    fn scan_answers_match_ground_truth() {
        let ds = dataset();
        let scan = ScanBaseline::build(&ds);
        let q = GraphBuilder::new("q")
            .vertices(&[1, 2])
            .edge(0, 1)
            .build()
            .unwrap();
        let outcome = scan.query(&ds, &q);
        assert_eq!(outcome.candidates, vec![0, 1]);
        assert_eq!(outcome.answers, exhaustive_answers(&ds, &q));
        assert_eq!(outcome.answers, vec![0]);
    }

    #[test]
    fn scan_has_no_index_to_speak_of() {
        let ds = dataset();
        let scan = ScanBaseline::build(&ds);
        let stats = scan.stats();
        assert_eq!(stats.distinct_features, 0);
        assert!(stats.size_bytes < 64);
    }

    #[test]
    fn scan_false_positive_ratio_is_miss_fraction() {
        let ds = dataset();
        let scan = ScanBaseline::build(&ds);
        let q = GraphBuilder::new("q").vertices(&[3]).build().unwrap();
        let outcome = scan.query(&ds, &q);
        // 2 candidates, 1 answer -> FP ratio 0.5.
        assert!((outcome.false_positive_ratio() - 0.5).abs() < 1e-12);
    }
}
