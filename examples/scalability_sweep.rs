//! Scalability sweep: regenerate one of the paper's figures from the
//! command line.
//!
//! Usage:
//! ```text
//! cargo run --release --example scalability_sweep -- [id] [smoke|laptop|paper]
//! ```
//!
//! The first argument picks the rows of the experiment catalogue
//! (`sqbench_harness::experiments`) whose id it is a prefix of — `fig1` …
//! `fig8`, `ablation_path_length`, or `ablation` for all five ablations;
//! `fig4` runs one report per query size and `fig7` one per partitioning
//! strategy. The default is `fig2`, the number-of-nodes sweep. The second
//! argument is the scale (default `smoke`). Output is the four text panels
//! of each report plus a CSV block that can be piped into a plotting tool.

use sqbench_harness::{experiments, report, ExperimentScale};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let which = args.get(1).map(String::as_str).unwrap_or("fig2");
    let scale = match args.get(2).map(String::as_str) {
        Some("laptop") => ExperimentScale::laptop(),
        Some("paper") => ExperimentScale::paper(),
        _ => ExperimentScale::smoke(),
    };

    let reports = experiments::run(which, &scale);
    if reports.is_empty() {
        let ids: Vec<String> = experiments::catalogue(&scale)
            .into_iter()
            .map(|row| row.id)
            .collect();
        eprintln!(
            "unknown experiment {which:?}; use a prefix of: {}",
            ids.join(", ")
        );
        std::process::exit(2);
    }
    for r in &reports {
        println!("{}", report::render_text(r));
        println!("--- CSV ---\n{}", report::render_csv(r));
    }
}
