//! The paper's evaluation section as one table: every figure and ablation
//! is a [`Sweep`] row of the [`catalogue`], and [`run`] is the one driver
//! that executes rows.
//!
//! | Row id | Paper artifact | Swept axis |
//! |---|---|---|
//! | `fig1_real` | Figure 1 | the four real-like datasets (AIDS, PDBS, PCM, PPI) |
//! | `fig2_nodes` | Figure 2 | nodes per graph — a linear increase in nodes is a quadratic increase in edges at fixed density, which breaks the frequent-mining methods first |
//! | `fig3_density` | Figure 3 | graph density — like Figure 2 with a gentler slope; only Grapes and GGSX survive the densest settings |
//! | `fig4_qsize<n>` | Figure 4 | the Figure 3 density axis, one row per query size — exhaustive-enumeration methods are largely insensitive to the query size, the mining methods are not |
//! | `fig5_labels` | Figure 5 | distinct labels — more labels help every method's filtering power; with few labels the mining methods blow up because every small fragment is frequent |
//! | `fig6_numgraphs` | Figure 6 | graphs in the dataset — every metric scales roughly linearly while the false positive ratio stays flat; which method hits its limits first is the finding |
//! | `fig7_shards_<strategy>` | beyond the paper | dataset shards of the sharded service, one row per placement strategy — answers stay exact while per-shard feature mining moves the false positive ratio; the `shards`, `max_shard_time_s`, `shard_balance` and `partition_overhead_bytes` columns carry the balance and memory view |
//! | `fig8_routing` | beyond the paper | shard count × {fan-out, synopsis routing} over a label-clustered dataset — match sets are identical (routing is sound); `shards_probed` / `shards_skipped` show the index probes the synopses saved |
//! | `ablation_location_info` | beyond the paper | Grapes (paths + start-vertex locations) vs. GGSX (paths + counts) vs. the index-less scan: what location information buys in filtering and costs in space |
//! | `ablation_path_length` | beyond the paper | path-length limit of Grapes and GGSX (the paper fixes it at 4) |
//! | `ablation_fingerprint_width` | beyond the paper | CT-Index fingerprint width (the paper uses 4096 bits); narrower fingerprints collide more and lose filtering power |
//! | `ablation_feature_size` | beyond the paper | maximum mined-fragment size of gIndex and Tree+Δ (the paper uses 10, which is what makes them blow up on larger graphs) |
//! | `ablation_grapes_threads` | beyond the paper | Grapes' parallel index construction (the paper uses 6 threads) |
//!
//! Every row varies one parameter around the scale's defaults, exactly like
//! the paper varies one parameter at a time around its "sane defaults", and
//! every point starts from the same [`RunOptions`] (the scale's time budget
//! and service worker count), overriding only the method set, the method
//! configuration or the service's shard layout. The paper-level trends each
//! row must show are asserted, by row id, in `tests/integration_experiments.rs`.
//! [`table1`] (dataset characteristics, not a sweep) stays its own routine.

mod catalogue;
pub mod table1;

pub use catalogue::catalogue;

use crate::report::{ExperimentPoint, ExperimentReport};
use crate::runner::{run_methods, ExperimentScale, RunOptions};
use crate::service::ServiceOptions;
use sqbench_generator::{label_clustered, GraphGen, GraphGenConfig, QueryGen, RealDataset};
use sqbench_graph::Dataset;

/// Number of label-disjoint graph families in a [`DatasetSpec::Clustered`]
/// dataset. Four families align with the shard counts `fig8_routing` sweeps
/// ({2, 4, 8} all divide or are divided by 4), so every shard stays
/// label-coherent under round-robin placement and routing has real skew to
/// exploit.
pub const FAMILIES: u32 = 4;

/// Where the dataset of one sweep point comes from. Equal specs name the
/// same dataset, which is how the driver generates each one once.
#[derive(Debug, Clone, PartialEq)]
pub enum DatasetSpec {
    /// The simulated stand-in of one of the paper's real datasets, at the
    /// scale's `real_dataset_scale`.
    Real(RealDataset),
    /// A GraphGen dataset.
    Synthetic(GraphGenConfig),
    /// The first `n` graphs of the GraphGen dataset, so that smaller
    /// datasets are strict prefixes of larger ones and stay comparable.
    Prefix(GraphGenConfig, usize),
    /// The GraphGen shape split into [`FAMILIES`] label-disjoint families,
    /// interleaved so round-robin placement keeps families shard-coherent.
    Clustered(GraphGenConfig),
}

/// One x-axis point of a [`Sweep`].
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Human-readable x-axis label.
    pub x_label: String,
    /// Numeric x value (the position for categorical axes).
    pub x_value: f64,
    /// The dataset measured at this point.
    pub dataset: DatasetSpec,
    /// The full options of the point's [`run_methods`] call.
    pub options: RunOptions,
}

/// One row of the [`catalogue`]: everything [`run`] needs to produce one
/// [`ExperimentReport`] at one scale, as plain data.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Report id; also what [`run`] matches its argument against.
    pub id: String,
    /// Report title, naming the paper artifact.
    pub title: String,
    /// The parameters held fixed and the axis values, spelled out.
    pub description: String,
    /// Query sizes (in edges) of the workloads served at every point.
    pub query_sizes: Vec<usize>,
    /// The x-axis, in report order.
    pub points: Vec<SweepPoint>,
}

/// The run options every sweep point starts from: default per-method
/// parameters (§4.1 of the paper) with the scale's time budget and service
/// worker count.
fn options_for(scale: &ExperimentScale) -> RunOptions {
    RunOptions {
        time_budget: scale.time_budget,
        service: ServiceOptions::new().workers(scale.query_threads),
        ..RunOptions::default()
    }
}

/// The datasets generated so far by one [`run`], keyed by their spec.
/// Handing out a dataset is an `Arc` clone per graph, never a copy.
#[derive(Default)]
struct Datasets(Vec<(DatasetSpec, Dataset)>);

impl Datasets {
    fn get(&mut self, spec: &DatasetSpec, scale: &ExperimentScale) -> Dataset {
        if let Some((_, dataset)) = self.0.iter().find(|(known, _)| known == spec) {
            return dataset.clone();
        }
        let dataset = match spec {
            DatasetSpec::Real(kind) => kind.generate(scale.real_dataset_scale, scale.seed),
            DatasetSpec::Synthetic(config) => GraphGen::new(config.clone()).generate(),
            DatasetSpec::Prefix(config, n) => self
                .get(&DatasetSpec::Synthetic(config.clone()), scale)
                .truncated(*n),
            DatasetSpec::Clustered(config) => label_clustered(config, FAMILIES),
        };
        self.0.push((spec.clone(), dataset.clone()));
        dataset
    }
}

/// Runs every catalogue row whose id starts with `id` at the given scale,
/// in catalogue order: `"fig2"` is Figure 2, `"fig4"` one report per query
/// size, `"fig7"` one per placement strategy, `"ablation"` all five
/// ablations, `""` everything. An id no row starts with yields no reports.
/// Rows run by one call share their datasets.
pub fn run(id: &str, scale: &ExperimentScale) -> Vec<ExperimentReport> {
    let mut datasets = Datasets::default();
    catalogue(scale)
        .iter()
        .filter(|sweep| sweep.id.starts_with(id))
        .map(|sweep| run_sweep(sweep, scale, &mut datasets))
        .collect()
}

/// The one sweep loop: per point, the dataset, one query workload per query
/// size, and all of the point's methods served over them.
fn run_sweep(sweep: &Sweep, scale: &ExperimentScale, datasets: &mut Datasets) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        sweep.id.clone(),
        sweep.title.clone(),
        sweep.description.clone(),
    );
    for point in &sweep.points {
        let dataset = datasets.get(&point.dataset, scale);
        let workloads = QueryGen::new(scale.seed ^ 0x51_00_ad).generate_all_sizes(
            &dataset,
            scale.queries_per_size,
            &sweep.query_sizes,
        );
        report.push_point(ExperimentPoint {
            x_label: point.x_label.clone(),
            x_value: point.x_value,
            results: run_methods(&dataset, &workloads, &point.options),
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::catalogue::default_shape as shape;
    use super::*;

    #[test]
    fn equal_specs_share_one_generated_dataset() {
        let scale = ExperimentScale::smoke();
        let mut datasets = Datasets::default();
        let spec = DatasetSpec::Synthetic(shape(&scale).with_label_count(3));
        let first = datasets.get(&spec, &scale);
        assert_eq!(first.len(), scale.graph_count);
        assert!(first.distinct_label_count() <= 3);
        let again = datasets.get(&spec, &scale);
        assert!(std::sync::Arc::ptr_eq(
            first.shared(0).unwrap(),
            again.shared(0).unwrap()
        ));
        assert_eq!(datasets.0.len(), 1);
    }

    #[test]
    fn prefix_datasets_are_prefixes_of_the_one_full_dataset() {
        let scale = ExperimentScale::smoke();
        let mut datasets = Datasets::default();
        let full = datasets.get(&DatasetSpec::Synthetic(shape(&scale)), &scale);
        let half = datasets.get(&DatasetSpec::Prefix(shape(&scale), 8), &scale);
        assert_eq!(half.len(), 8);
        for id in 0..8 {
            assert!(std::sync::Arc::ptr_eq(
                full.shared(id).unwrap(),
                half.shared(id).unwrap()
            ));
        }
    }

    #[test]
    fn clustered_dataset_is_label_disjoint_per_family() {
        let scale = ExperimentScale::smoke();
        let ds = Datasets::default().get(&DatasetSpec::Clustered(shape(&scale)), &scale);
        assert_eq!(ds.len(), scale.graph_count);
        for (id, g) in ds.iter() {
            let family = (id % FAMILIES as usize) as u32;
            let lo = family * scale.label_count;
            let hi = lo + scale.label_count;
            assert!(g.labels().iter().all(|&l| l >= lo && l < hi));
        }
    }

    #[test]
    fn an_unknown_id_runs_nothing() {
        assert!(run("fig9", &ExperimentScale::smoke()).is_empty());
    }
}
