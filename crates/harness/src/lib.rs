//! # sqbench-harness
//!
//! Experiment harness that reproduces the evaluation of the VLDB 2015 paper
//! *"Performance and Scalability of Indexed Subgraph Query Processing
//! Methods"*: it generates the paper's datasets and query workloads, drives
//! all six index methods through the same build → filter → verify pipeline,
//! and reports the paper's four metrics — index construction time, index
//! size, query processing time, and false positive ratio.
//!
//! The crate is organized as:
//!
//! * [`metrics`] — timers, per-method metric records and the false positive
//!   ratio of Equation (3);
//! * [`runner`] — the machinery that builds each index, runs a query
//!   workload against it and enforces the experiment time budget (the
//!   paper's 8-hour limit, scaled down);
//! * [`service`] — the long-lived query service the runner routes
//!   workloads through: a claim-to-completion filter → verify worker pool
//!   with one reusable candidate set per worker, plus the sharded
//!   service (dataset partitioner, per-shard pools, merge stage) and the
//!   open admission queue (`submit`/`drain` with backpressure and
//!   per-query deadlines);
//! * [`report`] — experiment report data structures plus plain-text and CSV
//!   rendering of the same rows/series the paper plots;
//! * [`experiments`] — the paper's figures (and the beyond-the-paper
//!   sweeps and ablations) as one catalogue of sweep rows behind one driver,
//!   plus Table 1; everything is parameterized by an [`ExperimentScale`] so
//!   the same rows run as a quick smoke test, at laptop scale or anchored at
//!   the paper's defaults.
//!
//! ## Quick example
//!
//! ```
//! use sqbench_harness::{experiments, ExperimentScale};
//!
//! // Smoke-scale run of the Figure 2 experiment (varying number of nodes).
//! let reports = experiments::run("fig2_nodes", &ExperimentScale::smoke());
//! assert!(!reports[0].points.is_empty());
//! println!("{}", sqbench_harness::report::render_text(&reports[0]));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod loadgen;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod service;

pub use loadgen::{run_open_loop, ArrivalProcess, LoadGenConfig, OpenLoopReport};
pub use metrics::{counted_false_positive_ratio, CacheCounters, MethodMetrics, StageTotals};
pub use report::{ExperimentPoint, ExperimentReport};
pub use runner::{run_methods, ExperimentScale, RunOptions};
pub use service::{
    AdmissionQueue, AnswerMemo, BatchReport, CachePolicy, FeatureCache, QueryService, Router,
    RoutingMode, ServiceOptions, ShardStrategy, ShardedReport, ShardedService, SubmitError,
};
