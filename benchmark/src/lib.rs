//! The repository benchmark: three BATON workloads driven from outside
//! through the crates' public functions, with answer oracles, per-layer
//! timing through a forwarding `Overlay` wrapper, and an in-memory span
//! recorder for traced runs.  See `README.md` for the workloads and metrics.

#![warn(missing_docs)]

pub mod churn;
pub mod common;
pub mod oracle;
pub mod query;
pub mod report;
pub mod serve;
pub mod trace;
pub mod wrapper;

use common::RunConfig;
use report::Outcome;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["query", "churn", "serve_mixed"];

/// Runs a workload at the benchmark's size; `None` for an unknown name.
pub fn run_workload(name: &str, cfg: &RunConfig) -> Option<Outcome> {
    Some(match name {
        "query" => query::run(cfg, query::Params::FULL),
        "churn" => churn::run(cfg, churn::Params::FULL),
        "serve_mixed" => serve::run(cfg, serve::Params::FULL),
        _ => return None,
    })
}
